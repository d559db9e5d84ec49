// Command espverify model-checks an ESP program — the role SPIN plays in
// the paper's Figure 4. The program must be closed: test-driver processes
// written in ESP (the analogue of test.SPIN) stand in for the external
// environment.
//
// Usage:
//
//	espverify [flags] program.esp
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	esplang "esplang"
	"esplang/internal/mc"
	"esplang/internal/obs"
)

func main() {
	var (
		mode      = flag.String("mode", "exhaustive", "exploration mode: exhaustive, bitstate, simulation (§5.1)")
		workers   = flag.Int("workers", 0, "parallel search workers (0 = all cores; 1 = deterministic)")
		maxStates = flag.Int("max-states", 0, "state bound (0 = default)")
		maxDepth  = flag.Int("max-depth", 0, "depth bound (0 = default)")
		bits      = flag.Uint("bits", 24, fmt.Sprintf("bitstate mode: log2 of the bit array size (at most %d)", mc.MaxBitstateBits))
		seed      = flag.Int64("seed", 1, "simulation mode: random seed")
		runs      = flag.Int("runs", 100, "simulation mode: number of walks")
		maxLive   = flag.Int("max-objects", 0, "objectId table size; exhausting it is a leak (§5.2)")
		endRecv   = flag.Bool("end-recv-ok", false, "treat all-receive-blocked states as valid end states")
		noDead    = flag.Bool("no-deadlock", false, "do not report deadlocks")
		progressC = flag.String("progress-channels", "", "comma-separated progress channels: report non-progress cycles (starvation) instead of safety")
		progress  = flag.Bool("progress", false, "print periodic search progress to stderr (states, frontier, states/s, memory)")
		progressI = flag.Duration("progress-interval", 2*time.Second, "interval between -progress samples")
		metricsF  = flag.String("metrics", "", "write a JSON metrics snapshot of the search to this file at exit")
		por       = flag.Bool("por", false, "partial-order reduction: explore one ample subset of independent transitions per state (verdict-preserving)")
		porStats  = flag.Bool("por-stats", false, "with -por (implied): print ample-set hit rate, proviso fallbacks, and deferred-transition counts after the search")
		noVet     = flag.Bool("no-vet", false, "do not print espvet static-analysis findings before checking")
		postmort  = flag.Bool("postmortem", false, "print the counterexample's flight-recorder postmortem (last events leading into the violation)")
		telemetry = flag.String("telemetry", "", "serve live telemetry on this address (e.g. 127.0.0.1:9464): /metrics, /statusz, /progress")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: espverify [flags] program.esp")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// Zero selects a bound's default (all cores for -workers); a negative
	// bound would silently cut the search short, run one worker or, for
	// -max-objects, switch leak detection off.
	for _, f := range []struct {
		name string
		v    int
	}{{"max-states", *maxStates}, {"max-depth", *maxDepth}, {"runs", *runs}, {"max-objects", *maxLive}, {"workers", *workers}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "espverify: -%s must not be negative, got %d\n", f.name, f.v)
			os.Exit(2)
		}
	}
	if *progressI <= 0 {
		fmt.Fprintf(os.Stderr, "espverify: -progress-interval must be positive, got %v\n", *progressI)
		os.Exit(2)
	}
	// A progress search is always exhaustive and unreduced: it would
	// ignore these flags.
	if *progressC != "" {
		for _, f := range []struct {
			name string
			set  bool
		}{{"por", *por}, {"por-stats", *porStats}} {
			if f.set {
				fmt.Fprintf(os.Stderr, "espverify: -%s must not be combined with -progress-channels (a progress search is never reduced)\n", f.name)
				os.Exit(2)
			}
		}
		if *mode != "exhaustive" {
			fmt.Fprintf(os.Stderr, "espverify: -mode must be exhaustive with -progress-channels, got %s\n", *mode)
			os.Exit(2)
		}
	}
	if *bits > mc.MaxBitstateBits {
		fmt.Fprintf(os.Stderr, "espverify: -bits must be at most %d, got %d\n", mc.MaxBitstateBits, *bits)
		os.Exit(2)
	}
	prog, err := esplang.CompileFile(flag.Arg(0), esplang.CompileOptions{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "espverify: %v\n", err)
		os.Exit(1)
	}
	// Static findings print before the search starts: a finding the
	// counterexample then confirms is tagged below, and a leak/deadlock
	// the search misses (open systems, bounds) is still surfaced here.
	if !*noVet && len(prog.Findings) > 0 {
		fmt.Fprint(os.Stderr, prog.RenderFindings())
	}
	var progressChans []string
	if *progressC != "" {
		progressChans = strings.Split(*progressC, ",")
		for _, name := range progressChans {
			if prog.IR.ChannelByName(name) == nil {
				fmt.Fprintf(os.Stderr, "espverify: -progress-channels must name the program's channels: no channel %q\n", name)
				os.Exit(2)
			}
		}
	}

	opts := esplang.VerifyOptions{
		Workers:         *workers,
		MaxStates:       *maxStates,
		MaxDepth:        *maxDepth,
		BitstateBits:    *bits,
		Seed:            *seed,
		SimRuns:         *runs,
		MaxLiveObjects:  *maxLive,
		EndRecvOK:       *endRecv,
		NoDeadlockCheck: *noDead,
	}
	if *por || *porStats {
		opts.Reduction = esplang.AmpleSets
	}
	var reg *obs.Metrics
	if *metricsF != "" || *telemetry != "" {
		reg = obs.NewMetrics()
		opts.Metrics = reg
	}
	var srv *obs.Server
	if *telemetry != "" {
		var err error
		srv, err = obs.NewServer(*telemetry, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "espverify: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		progName := flag.Arg(0)
		srv.SetStatus(func(w io.Writer) {
			fmt.Fprintf(w, "program: %s\nmode: %s\n", progName, *mode)
		})
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s\n", srv.Addr())
	}
	if *progress || srv != nil {
		// The latest sample feeds both the stderr progress line and the
		// telemetry server's /progress endpoint.
		var mu sync.Mutex
		var latest esplang.ProgressInfo
		var have bool
		opts.Progress = func(info esplang.ProgressInfo) {
			mu.Lock()
			latest, have = info, true
			mu.Unlock()
			if *progress {
				fmt.Fprintln(os.Stderr, info)
			}
		}
		opts.ProgressInterval = *progressI
		if srv != nil {
			srv.SetProgress(func(w io.Writer) {
				mu.Lock()
				defer mu.Unlock()
				if !have {
					fmt.Fprintln(w, "search not started")
					return
				}
				fmt.Fprintln(w, latest)
			})
		}
	}
	switch *mode {
	case "exhaustive":
		opts.Mode = esplang.Exhaustive
	case "bitstate":
		opts.Mode = esplang.BitState
	case "simulation":
		opts.Mode = esplang.Simulation
	default:
		fmt.Fprintf(os.Stderr, "espverify: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	var res *esplang.VerifyResult
	if progressChans != nil {
		res = prog.VerifyProgress(progressChans, opts)
	} else {
		res = prog.Verify(opts)
	}
	if *metricsF != "" {
		f, err := os.Create(*metricsF)
		if err == nil {
			err = reg.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "espverify: writing metrics: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Println(res)
	if *porStats && res.POR != nil {
		p := res.POR
		fmt.Printf("por: ample at %d/%d states (%.1f%% hit rate), %d proviso fallbacks, %d transitions deferred (lower bound on successors avoided)\n",
			p.AmpleStates, p.AmpleStates+p.FullStates, 100*p.HitRate(),
			p.ProvisoFallbacks, p.DeferredTransitions)
	}
	if res.Violation != nil {
		fmt.Println("counterexample:")
		for i, step := range res.Violation.Trace {
			fmt.Printf("  %3d. %s\n", i+1, step.Desc)
		}
		if f := prog.ConfirmFinding(res.Violation); f != nil {
			fmt.Printf("confirms static finding: %s\n", f)
		}
		if *postmort && res.Violation.Postmortem != "" {
			fmt.Println("postmortem (counterexample replay):")
			fmt.Print(res.Violation.Postmortem)
		}
		if srv != nil {
			srv.Close()
		}
		os.Exit(1)
	}
}
