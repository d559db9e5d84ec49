package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// baselineFile holds several result sets of the same code (baseline.json).
type baselineFile struct {
	Note string        `json:"note"`
	Sets []resultsFile `json:"sets"`
}

// loadResults reads a results file written by -out, or with a "#i"
// suffix set i of a baseline file.
func loadResults(arg string) (*resultsFile, error) {
	path, sel, hasSel := strings.Cut(arg, "#")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !hasSel {
		var r resultsFile
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	var b baselineFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	i, err := strconv.Atoi(sel)
	if err != nil || i < 0 || i >= len(b.Sets) {
		return nil, fmt.Errorf("%s: no result set %q (the file has %d)", path, sel, len(b.Sets))
	}
	return &b.Sets[i], nil
}

// verdict classifies one (workload, metric) row of a comparison.
//
// spread is the wider of the two sides' interquartile ranges as a share
// of their medians. When it exceeds the bound, the runs cannot resolve a
// move of the bound's size, so the row is unresolved — unless every new
// run beats every old run. Otherwise the median's move is compared with
// the bound.
func verdict(m specMetric, old, new []float64) (worse float64, spread float64, v string) {
	so, sn := summarize(old), summarize(new)
	spread = math.Max(so.spread(), sn.spread())
	sign := 1.0 // positive worse = the metric moved the wrong way
	if m.Better == "higher" {
		sign = -1
	}
	if so.Value != 0 {
		worse = sign * (sn.Value - so.Value) / so.Value
	}
	bound := 0.0
	if m.Bound != nil {
		bound = *m.Bound
	}
	switch {
	case spread > bound && dominates(sign, new, old):
		return worse, spread, "improved"
	case spread > bound:
		return worse, spread, "unresolved"
	case worse > bound:
		return worse, spread, "worse"
	case -worse > bound:
		return worse, spread, "improved"
	}
	return worse, spread, "unchanged"
}

// dominates reports whether every value of a is better than every value
// of b (sign +1: lower is better).
func dominates(sign float64, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if sign*x >= sign*y {
				return false
			}
		}
	}
	return true
}

// runCompare prints one row per (workload, end-to-end metric) with both
// sides' medians and quartiles across runs, and returns 1 if any row got
// worse.
func runCompare(w io.Writer, spec *benchSpec, oldArg, newArg string) int {
	oldR, err := loadResults(oldArg)
	if err != nil {
		fatal(err)
	}
	newR, err := loadResults(newArg)
	if err != nil {
		fatal(err)
	}
	status := 0
	fmt.Fprintf(w, "%-13s %-14s %-30s %-30s %8s %7s  %s\n", "workload", "metric",
		"old median [q1, q3] n", "new median [q1, q3] n", "worse", "spread", "verdict")
	side := func(vs []float64) string {
		s := summarize(vs)
		return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.Value, s.Q1, s.Q3, s.N)
	}
	for _, wl := range spec.Workloads {
		o, n := oldR.Workloads[wl.Name], newR.Workloads[wl.Name]
		if len(o) == 0 || len(n) == 0 {
			fmt.Fprintf(w, "%-13s (missing on one side)\n", wl.Name)
			status = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := runValues(o, m.Name), runValues(n, m.Name)
			worse, spread, v := verdict(m, ov, nv)
			if v == "worse" {
				status = 1
			}
			fmt.Fprintf(w, "%-13s %-14s %-30s %-30s %+7.1f%% %6.1f%%  %s\n", wl.Name, m.Name,
				side(ov), side(nv), 100*worse, 100*spread, v)
		}
	}
	return status
}
