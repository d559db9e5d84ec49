package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	seed    int64
	seconds float64 // length of the timed phase
	// ops, when positive, runs exactly this many timed operations (this
	// many of each kind in a traced run) instead of timing the phase.
	ops   int
	trace bool
	root  string
}

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median. The first set-up builds the state the operations
// use; the others are spread evenly over the timed phase, so that setup_s
// samples the machine's speed over the whole run, not only at its start.
const setupReps = 21

// runRecord is everything one run measured.
type runRecord struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Trace     bool            `json:"trace"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	// Layers is the traced run's self-time table.
	Layers    []layerSelf `json:"layers,omitempty"`
	TracedOps int         `json:"traced_ops,omitempty"`
}

func (r *runRecord) fail(k int, err error) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, fmt.Sprintf("op %d: %v", k, err))
	}
}

// runWorkload sets the workload up, runs one untimed warm-up operation,
// then runs operations back to back from this goroutine — a closed loop
// with one caller — for the timed phase. An untraced run reports the
// end-to-end metrics, and between operations sets the workload up again
// (untimed as operations) until it has setupReps set-up times. A traced
// run sets up once, alternates untraced and traced operations, and
// reports the per-layer metrics; it returns its tracer for the trace file.
func runWorkload(name string, cfg runConfig) (*runRecord, *tracer, error) {
	def, err := workloadByName(name)
	if err != nil {
		return nil, nil, err
	}
	rec := &runRecord{Workload: name, Seed: cfg.seed, Trace: cfg.trace, Metrics: map[string]stat{}}

	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var setupS []float64
	setUp := func() (bench, error) {
		runtime.GC()
		t0 := time.Now()
		b, err := def.setup(env{seed: cfg.seed, root: cfg.root})
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		return b, nil
	}
	// setUpDue runs the set-ups due by the time a share done of the timed
	// phase has passed: set-up i (from 0) is due at i/reps.
	setUpDue := func(done float64) error {
		for len(setupS) < reps && done >= float64(len(setupS))/float64(reps) {
			if _, err := setUp(); err != nil {
				return err
			}
		}
		return nil
	}
	b, err := setUp()
	if err != nil {
		return nil, nil, err
	}

	rec.Attempted++
	if err := b.op(0, nil, nil); err != nil {
		rec.fail(0, err)
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var plainMs, tracedMs []float64
	var parts partTimes
	if !cfg.trace {
		parts = partTimes{}
	}
	var allocBytes uint64
	var ms0, ms1 runtime.MemStats
	lastOp := cfg.ops
	if cfg.trace {
		lastOp *= 2
	}
	gc0, cpu0 := gcCPU()
	start := time.Now()
	for k := 1; ; k++ {
		done := time.Since(start).Seconds() / cfg.seconds
		if cfg.ops > 0 {
			done = float64(k-1) / float64(lastOp)
		}
		if err := setUpDue(done); err != nil {
			return nil, nil, err
		}
		traced := cfg.trace && k%2 == 0
		if cfg.ops > 0 {
			if k > lastOp {
				break
			}
		} else if k > 1 && (!cfg.trace || k > 2) && time.Since(start).Seconds() >= cfg.seconds {
			break
		}
		var opTr *tracer
		if traced {
			opTr = tr
			tr.op = k
			tr.begin("bench.op")
		} else if cfg.trace {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		err := b.op(k, opTr, parts)
		dt := time.Since(t0)
		if traced {
			tr.end()
		}
		rec.Attempted++
		if err != nil {
			rec.fail(k, err)
			continue
		}
		ms := float64(dt) / 1e6
		if traced {
			tracedMs = append(tracedMs, ms)
			continue
		}
		if cfg.trace {
			runtime.ReadMemStats(&ms1)
			allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		}
		plainMs = append(plainMs, ms)
	}
	gc1, cpu1 := gcCPU()

	if !cfg.trace {
		if err := setUpDue(1); err != nil {
			return nil, nil, err
		}
		rec.Metrics["setup_s"] = summarize(setupS)
		op := summarize(plainMs)
		op.Value = parts.bestOpMs(len(plainMs))
		rec.Metrics["op_ms_best"] = op
		rec.Metrics["peak_rss_mb"] = single(peakRSSMB())
		return rec, nil, nil
	}

	rec.TracedOps = len(tracedMs)
	lm, err := b.layers(tr, len(tracedMs))
	if err != nil {
		rec.fail(-1, fmt.Errorf("layer metrics: %w", err))
	}
	for k, v := range lm {
		rec.Metrics[k] = single(v)
	}
	if len(plainMs) > 0 {
		rec.Metrics["runtime.alloc_bytes_per_op"] = single(float64(allocBytes) / float64(len(plainMs)))
		rec.Metrics["trace.overhead_ratio"] = single(median(tracedMs) / median(plainMs))
	}
	if cpu1 > cpu0 {
		rec.Metrics["runtime.gc_cpu_frac"] = single((gc1 - gc0) / (cpu1 - cpu0))
	}
	rec.Layers = tr.selfTable()
	return rec, tr, nil
}

// gcCPU reads the Go runtime's cumulative GC and total CPU time.
func gcCPU() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// peakRSSMB is this process's peak resident set size (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
