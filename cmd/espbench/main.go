// Command espbench is the reference benchmark of the ESP toolchain. It
// times the paper's own workloads end to end — the Fig. 5 simulations
// on vmmcESP and the original firmware, the §5.3 verification runs with
// and without partial-order reduction, and compiling plus fuzzing — and
// checks every result against a reference while it times it. A traced
// run splits each workload into per-layer numbers. BENCHMARK.json at the
// repository root names the workloads and metrics, with each metric's
// unit and regression bound.
//
// One workload in this process (the form the benchmark harness runs):
//
//	espbench -workload fig5-esp -seed 1 -seconds 25 -trace 0
//
// prints a metrics table on stderr and, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics, or with -trace 1 the per-layer metrics.
//
// Every workload, each in a child process (run.sh builds the binary):
//
//	espbench -seed 1 [-runs 3] [-out results.json] [-trace 1 -trace-file trace.json]
//
// Comparing two results files (a baseline file's sets are "file#0",
// "file#1"):
//
//	espbench -compare old.json new.json
//
// The run exits nonzero when any operation's result differs from its
// reference, and -compare when any metric got worse than its bound.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// specMetric and benchSpec mirror BENCHMARK.json.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricsFor is the metric list a run reports: end-to-end, or per-layer
// for a traced run.
func (s *benchSpec) metricsFor(trace bool) []specMetric {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// findRoot walks up from the working directory to the esplang module
// root, which holds BENCHMARK.json and testdata/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module esplang\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the esplang repository (no go.mod with module esplang)")
		}
		dir = parent
	}
}

func main() {
	var (
		workload  = flag.String("workload", "", "run only this workload, in this process")
		seed      = flag.Int64("seed", 1, "input seed: the fuzz program set and the order of the runs inside each operation")
		seconds   = flag.Float64("seconds", 0, "length of each run's timed phase (0 = run_seconds from BENCHMARK.json)")
		trace     = flag.Int("trace", 0, "1 = traced run, reporting per-layer metrics")
		traceFile = flag.String("trace-file", "", "write the traced run's spans to this file as Chrome trace-event JSON")
		out       = flag.String("out", "", "write every run's results to this JSON file")
		runs      = flag.Int("runs", 1, "runs of each workload, with seeds seed, seed+1, ...")
		compare   = flag.Bool("compare", false, "compare two results files: -compare old.json new.json")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		fatal(err)
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("usage: espbench -compare old.json new.json"))
		}
		os.Exit(runCompare(os.Stdout, spec, flag.Arg(0), flag.Arg(1)))
	case flag.NArg() != 0:
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	case *trace != 0 && *trace != 1:
		fatal(errors.New("-trace takes 0 or 1"))
	case *workload != "":
		cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, root: root}
		os.Exit(runOne(spec, *workload, cfg, *traceFile))
	default:
		os.Exit(runAll(spec, *seed, *seconds, *runs, *trace == 1, *traceFile, *out))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "espbench:", err)
	os.Exit(2)
}

// detailPrefix marks the stdout line that carries a child's full run
// record to the parent.
const detailPrefix = "espbench-run "

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a workload run's stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload in this process and prints its result.
func runOne(spec *benchSpec, name string, cfg runConfig, traceFile string) int {
	rec, tr, err := runWorkload(name, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "espbench:", err)
		return 1
	}
	if tr != nil && traceFile != "" {
		if err := writeTraceFile(traceFile, tr.chromeEvents(1, name)); err != nil {
			fmt.Fprintln(os.Stderr, "espbench:", err)
			return 1
		}
	}
	printRun(os.Stderr, spec, rec)
	detail, err := json.Marshal(rec)
	if err != nil {
		fatal(err)
	}
	line := resultLine{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]metricValue{}}
	for _, m := range spec.metricsFor(cfg.trace) {
		line.Metrics[m.Name] = metricValue{Value: rec.Metrics[m.Name].Value, Unit: m.Unit}
	}
	last, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s%s\n%s\n", detailPrefix, detail, last)
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

func writeTraceFile(path string, evs []chromeEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChrome(f, evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRun prints one run's metrics: the value, the quartiles of the
// samples behind it, and the sample count.
func printRun(w io.Writer, spec *benchSpec, rec *runRecord) {
	kind := "end-to-end"
	if rec.Trace {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s (seed %d): %d ops, %d failed, %s metrics\n", rec.Workload, rec.Seed, rec.Attempted, rec.Failed, kind)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
	fmt.Fprintf(w, "  %-28s %14s %14s %14s %7s  %s\n", "metric", "value", "q1", "q3", "n", "unit")
	for _, m := range spec.metricsFor(rec.Trace) {
		s, ok := rec.Metrics[m.Name]
		if !ok {
			continue // a layer this workload does not exercise
		}
		fmt.Fprintf(w, "  %-28s %14.6g %14.6g %14.6g %7d  %s\n", m.Name, s.Value, s.Q1, s.Q3, s.N, m.Unit)
	}
	if rec.Trace {
		printSelfTable(w, rec.Workload, rec.Layers, rec.TracedOps)
	}
}

// resultsFile is what -out writes and -compare reads.
type resultsFile struct {
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Runs      int                    `json:"runs"`
	Trace     bool                   `json:"trace"`
	GoVersion string                 `json:"go_version"`
	GOOS      string                 `json:"goos"`
	GOARCH    string                 `json:"goarch"`
	NumCPU    int                    `json:"num_cpu"`
	Workloads map[string][]runRecord `json:"workloads"`
}

// runAll runs every workload runs times, each run in a child process of
// its own (so peak RSS and the GC heap are per workload), one after
// another, interleaving the workloads between repetitions.
func runAll(spec *benchSpec, seed int64, seconds float64, runs int, trace bool, traceFile, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	res := resultsFile{Seed: seed, Seconds: seconds, Runs: runs, Trace: trace,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		Workloads: map[string][]runRecord{}}
	var traceEvs []chromeEvent
	status := 0
	for r := 0; r < runs; r++ {
		for wi, w := range spec.Workloads {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(seed+int64(r), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
			childTrace := ""
			if trace {
				args[len(args)-1] = "1"
				if traceFile != "" && r == 0 {
					childTrace = traceFile + "." + w.Name
					args = append(args, "-trace-file", childTrace)
				}
			}
			rec, err := runChild(self, args)
			if err != nil {
				fmt.Fprintf(os.Stderr, "espbench: %s: %v\n", w.Name, err)
				status = 1
			}
			if rec == nil {
				continue
			}
			res.Workloads[w.Name] = append(res.Workloads[w.Name], *rec)
			if childTrace != "" {
				evs, err := readTraceEvents(childTrace, wi+1)
				if err != nil {
					fmt.Fprintf(os.Stderr, "espbench: %s: %v\n", w.Name, err)
					status = 1
				}
				traceEvs = append(traceEvs, evs...)
				if err := os.Remove(childTrace); err != nil {
					fmt.Fprintln(os.Stderr, "espbench:", err)
				}
			}
		}
	}

	printSummary(os.Stdout, spec, &res)
	if trace {
		for _, w := range spec.Workloads {
			if recs := res.Workloads[w.Name]; len(recs) > 0 {
				printSelfTable(os.Stdout, w.Name, recs[0].Layers, recs[0].TracedOps)
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "espbench:", err)
			status = 1
		}
	}
	if traceFile != "" && trace {
		if err := writeTraceFile(traceFile, traceEvs); err != nil {
			fmt.Fprintln(os.Stderr, "espbench:", err)
			status = 1
		}
	}
	return status
}

// runChild runs one workload in a child process and returns the run
// record from its stdout. A child that reports failed operations exits
// nonzero but still returns its record.
func runChild(self string, args []string) (*runRecord, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, runErr := cmd.Output()
	var rec *runRecord
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if line, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			rec = &runRecord{}
			if err := json.Unmarshal([]byte(line), rec); err != nil {
				return nil, fmt.Errorf("child output: %w", err)
			}
		}
	}
	if runErr != nil {
		return rec, runErr
	}
	if rec == nil {
		return nil, errors.New("child printed no run record")
	}
	return rec, nil
}

// readTraceEvents loads a child's trace file, moving its events to
// process pid so the workloads get separate tracks in the merged trace.
func readTraceEvents(path string, pid int) ([]chromeEvent, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f chromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for i := range f.TraceEvents {
		f.TraceEvents[i].Pid = pid
	}
	return f.TraceEvents, nil
}

// printSummary prints one row per (workload, metric). With one run per
// workload the quartiles and count are those of the samples inside the
// run (operations, set-up repetitions); with several they are across
// runs.
func printSummary(w io.Writer, spec *benchSpec, res *resultsFile) {
	across := res.Runs > 1
	nLabel := "samples"
	if across {
		nLabel = "runs"
	}
	fmt.Fprintf(w, "\n%-13s %-28s %14s %14s %14s %8s  %s\n", "workload", "metric", "median", "q1", "q3", nLabel, "unit")
	for _, wl := range spec.Workloads {
		recs := res.Workloads[wl.Name]
		if len(recs) == 0 {
			fmt.Fprintf(w, "%-13s (no result)\n", wl.Name)
			continue
		}
		var attempted, failed int
		for _, r := range recs {
			attempted += r.Attempted
			failed += r.Failed
		}
		for _, m := range spec.metricsFor(res.Trace) {
			s, ok := recs[0].Metrics[m.Name]
			if across {
				s, ok = summarize(runValues(recs, m.Name)), true
			}
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%-13s %-28s %14.6g %14.6g %14.6g %8d  %s\n", wl.Name, m.Name, s.Value, s.Q1, s.Q3, s.N, m.Unit)
		}
		fmt.Fprintf(w, "%-13s %-28s %14.6g %14s %14s %8d  (%d of %d ops failed)\n", wl.Name, "failed_frac",
			float64(failed)/float64(max(attempted, 1)), "", "", len(recs), failed, attempted)
	}
}

// runValues is one metric's value in each run.
func runValues(recs []runRecord, name string) []float64 {
	vs := make([]float64, 0, len(recs))
	for _, r := range recs {
		vs = append(vs, r.Metrics[name].Value)
	}
	return vs
}
