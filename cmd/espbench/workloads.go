package main

import (
	"fmt"
	"math/rand"
)

// bench is one workload after set-up: the state its operations share.
type bench interface {
	// op runs operation k (k = 0 is the untimed warm-up) and checks its
	// results against the reference. tr is nil on untraced operations; a
	// traced operation records spans around its calls into each layer and
	// accumulates the counts its layer metrics need. parts, when not nil,
	// receives the time of each part of the operation.
	op(k int, tr *tracer, parts partTimes) error
	// layers derives the workload's per-layer metrics from the spans and
	// counts the traced operations left behind. It may run extra
	// measurements of its own, outside any operation (the checker
	// replica does).
	layers(tr *tracer, tracedOps int) (map[string]float64, error)
}

// env is what set-up gets: the seed and the repository root (for
// testdata/).
type env struct {
	seed int64
	root string
}

type workloadDef struct {
	name  string
	setup func(env) (bench, error)
}

// workloads lists every workload in BENCHMARK.json order; the test
// TestBenchmarkJSONMatchesCode keeps the two in step.
var workloads = []workloadDef{
	{"fig5-esp", setupFig5ESP},
	{"fig5-orig", setupFig5Orig},
	{"verify-full", setupVerifyFull},
	{"verify-por", setupVerifyPOR},
	{"compile-fuzz", setupCompileFuzz},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// opOrder returns a permutation of n parts for operation k: the seed
// chooses the order in which an operation runs its parts, so different
// seeds exercise the same work in different orders.
func opOrder(seed int64, k, n int) []int {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(k))).Perm(n)
}
