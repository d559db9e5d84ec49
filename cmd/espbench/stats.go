package main

import (
	"slices"
	"sort"
	"time"
)

// stat summarizes one metric of one run, or of a set of runs: the value
// the benchmark reports, the quartiles of the samples it came from, and
// how many samples there were.
type stat struct {
	Value float64 `json:"value"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// summarize returns the median and quartiles of xs.
func summarize(xs []float64) stat {
	q1, med, q3 := quartiles(xs)
	return stat{Value: med, Q1: q1, Q3: q3, N: len(xs)}
}

// partTimes keeps the fastest time of each part of an operation — a
// Fig. 5 case, a model-checker run, a compile, a fuzz program — and how
// many times the part ran. A nil *partTimes records nothing.
//
// Interference from other tenants of a shared machine only ever slows a
// part down, and on a small VM it comes and goes for seconds at a time,
// so a part's fastest run in a run of many is its cost without the
// interference; a median mixes in however much of the run was disturbed.
type partTimes map[string]*partTime

type partTime struct {
	fastestNs int64
	runs      int
}

// done records a run of the named part that began at t0.
func (p partTimes) done(name string, t0 time.Time) {
	if p == nil {
		return
	}
	ns := int64(time.Since(t0))
	t := p[name]
	if t == nil {
		t = &partTime{fastestNs: ns}
		p[name] = t
	}
	t.fastestNs = min(t.fastestNs, ns)
	t.runs++
}

// bestOpMs is the time of an average operation of the ops recorded with
// every part at its fastest: each part's fastest time weighted by the
// number of times it ran, over ops. When every operation runs the same
// parts, this is the sum of their fastest times.
func (p partTimes) bestOpMs(ops int) float64 {
	if ops == 0 {
		return 0
	}
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	slices.Sort(names) // a fixed summation order
	var ns float64
	for _, name := range names {
		ns += float64(p[name].fastestNs) * float64(p[name].runs)
	}
	return ns / float64(ops) / 1e6
}

// single is a metric measured once per run (a total or a peak).
func single(v float64) stat { return stat{Value: v, Q1: v, Q3: v, N: 1} }

// quartiles computes the three cut points the way Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method),
// so the spreads this tool prints match the ones an outside script
// computes from the same values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	_, med, _ := quartiles(xs)
	return med
}

// spread is the interquartile range as a share of the median.
func (s stat) spread() float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Value
}
