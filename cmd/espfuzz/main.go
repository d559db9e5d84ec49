// Command espfuzz fuzzes the whole ESP toolchain differentially: it
// generates well-typed programs (and mutates existing corpus programs),
// runs every one through both VM interpreters × optimizer
// configurations, the model checker, espvet, and the C/Promela
// backends, and reports any divergence or crash as a toolchain bug.
//
// Failures are auto-minimized by delta debugging over the AST and
// written as self-contained reproducer programs. Everything is
// deterministic under -seed, so a CI failure replays locally:
//
//	espfuzz -seed 1 -n 1000 -corpus testdata -mutants 10
//
// Exit status: 0 when every program behaved consistently, 1 when the
// oracle found bugs (reproducers written to -out), 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"esplang/internal/fuzz"
	"esplang/internal/obs"
)

func main() {
	var (
		seed        = flag.Int64("seed", 1, "base seed; program i uses seed+i")
		n           = flag.Int("n", 1000, "number of generated programs")
		mutants     = flag.Int("mutants", 0, "mutants per corpus program")
		corpus      = flag.String("corpus", "", "directory of .esp programs to mutate")
		out         = flag.String("out", "espfuzz-found", "directory for minimized reproducers")
		minBudget   = flag.Int("minimize", 300, "max candidate evaluations per minimization")
		mcStates    = flag.Int("mc-states", 20000, "model-checker state bound per program")
		skipMC      = flag.Bool("no-mc", false, "skip the model-checker oracle stages")
		verbose     = flag.Bool("v", false, "print every program's outcome")
		maxFailures = flag.Int("max-failures", 20, "stop after this many distinct failures")
		progress    = flag.Bool("progress", false, "print a periodic progress line to stderr (programs/s, compile rate, divergences)")
		progressI   = flag.Duration("progress-interval", 5*time.Second, "interval between -progress lines")
		telemetry   = flag.String("telemetry", "", "serve live telemetry on this address (e.g. 127.0.0.1:9464): /metrics, /statusz, /progress")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: espfuzz [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// -n 0 runs only the corpus mutants and -mc-states 0 selects the
	// oracle's default bound. A negative count runs nothing, and a
	// negative -mc-states cuts every model-checker stage to a one-state
	// partial search, which the oracle does not check.
	for _, f := range []struct {
		name string
		v    int
	}{{"n", *n}, {"mutants", *mutants}, {"minimize", *minBudget}, {"mc-states", *mcStates}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "espfuzz: -%s must not be negative, got %d\n", f.name, f.v)
			os.Exit(2)
		}
	}
	if *maxFailures < 1 {
		fmt.Fprintf(os.Stderr, "espfuzz: -max-failures must be at least 1, got %d\n", *maxFailures)
		os.Exit(2)
	}
	if *progressI <= 0 {
		fmt.Fprintf(os.Stderr, "espfuzz: -progress-interval must be positive, got %v\n", *progressI)
		os.Exit(2)
	}
	opts := fuzz.Options{MCMaxStates: *mcStates, SkipMC: *skipMC}

	start := time.Now()
	// Campaign counters live in a metrics registry so the stderr progress
	// line and the telemetry server's /metrics report the same numbers.
	reg := obs.NewMetrics()
	f := &fuzzer{
		opts: opts, out: *out, minBudget: *minBudget, verbose: *verbose, maxFailures: *maxFailures,
		programs:    reg.Counter("fuzz_programs_total"),
		compiled:    reg.Counter("fuzz_compiled_total"),
		divergences: reg.Counter("fuzz_divergences_total"),
		start:       start,
	}
	if *progress {
		f.progressEvery = *progressI
		f.lastProgress = start
	}
	if *telemetry != "" {
		srv, err := obs.NewServer(*telemetry, reg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "espfuzz: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		srv.SetStatus(func(w io.Writer) {
			fmt.Fprintf(w, "campaign: espfuzz seed=%d n=%d\n", *seed, *n)
		})
		srv.SetProgress(func(w io.Writer) { fmt.Fprintln(w, f.progressLine()) })
		fmt.Fprintf(os.Stderr, "telemetry: serving on http://%s\n", srv.Addr())
	}

	for i := 0; i < *n && !f.stop(); i++ {
		g := fuzz.Generate(*seed + int64(i))
		f.one(g.Name(), g.Source)
	}

	if *corpus != "" && *mutants > 0 {
		files, err := filepath.Glob(filepath.Join(*corpus, "*.esp"))
		if err != nil || len(files) == 0 {
			fmt.Fprintf(os.Stderr, "espfuzz: no corpus programs in %s\n", *corpus)
			os.Exit(2)
		}
		sort.Strings(files)
		for fi, path := range files {
			src, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "espfuzz: %v\n", err)
				os.Exit(2)
			}
			base := filepath.Base(path)
			for j := 0; j < *mutants && !f.stop(); j++ {
				mseed := *seed*1_000_003 + int64(fi)*10_007 + int64(j)
				msrc, err := fuzz.Mutate(string(src), mseed, 1+j%3)
				if err != nil {
					fmt.Fprintf(os.Stderr, "espfuzz: mutate %s: %v\n", base, err)
					os.Exit(2)
				}
				f.one(fmt.Sprintf("mut-%s-%d", base[:len(base)-len(".esp")], mseed), msrc)
			}
		}
	}

	fmt.Printf("espfuzz: %d programs in %v\n", f.total, time.Since(start).Round(time.Millisecond))
	var outcomes []string
	for o := range f.outcomes {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		fmt.Printf("  %-28s %d\n", o, f.outcomes[o])
	}
	if f.failures > 0 {
		fmt.Printf("espfuzz: %d FAILING program(s); reproducers in %s\n", f.failures, f.out)
		os.Exit(1)
	}
	fmt.Println("espfuzz: no divergences, no crashes")
}

type fuzzer struct {
	opts        fuzz.Options
	out         string
	minBudget   int
	verbose     bool
	maxFailures int

	// The counters are shared with the telemetry server's registry, so
	// progressLine may be called concurrently from an HTTP handler; it
	// must only read these atomics and the immutable start time.
	programs    *obs.Counter
	compiled    *obs.Counter
	divergences *obs.Counter
	start       time.Time

	progressEvery time.Duration // 0 = no stderr progress line
	lastProgress  time.Time

	total    int
	failures int
	outcomes map[string]int
}

func (f *fuzzer) stop() bool { return f.failures >= f.maxFailures }

// progressLine renders the campaign state: throughput, how many
// generated programs made it past the front end, and divergences so far.
func (f *fuzzer) progressLine() string {
	n := f.programs.Value()
	elapsed := time.Since(f.start)
	rate := float64(n) / elapsed.Seconds()
	compileRate := 0.0
	if n > 0 {
		compileRate = 100 * float64(f.compiled.Value()) / float64(n)
	}
	return fmt.Sprintf("espfuzz: %d programs in %v (%.1f/s), %.1f%% compile, %d divergence(s)",
		n, elapsed.Round(time.Second), rate, compileRate, f.divergences.Value())
}

// one runs the differential oracle on a single program, minimizing and
// persisting any failure.
func (f *fuzzer) one(name, src string) {
	f.total++
	f.programs.Inc()
	rep := fuzz.RunDifferential(name, src, f.opts)
	if f.outcomes == nil {
		f.outcomes = map[string]int{}
	}
	f.outcomes[rep.Outcome]++
	if rep.Outcome != "parse-error" && rep.Outcome != "compile-error" {
		f.compiled.Inc()
	}
	if f.progressEvery > 0 && time.Since(f.lastProgress) >= f.progressEvery {
		f.lastProgress = time.Now()
		fmt.Fprintln(os.Stderr, f.progressLine())
	}
	if f.verbose {
		fmt.Printf("%s\n", rep)
	}
	if !rep.Failed() {
		return
	}
	f.failures++
	f.divergences.Inc()
	fmt.Fprintf(os.Stderr, "FAIL %s\n%s\n", name, rep)

	// Minimize while the failure signature is preserved. The
	// model-checker stages only run during minimization when the
	// original failure involved them.
	key := rep.Key()
	mopts := f.opts
	if !hasMCStage(rep) {
		mopts.SkipMC = true
	}
	min := fuzz.Minimize(src, func(cand string) bool {
		r := fuzz.RunDifferential(name, cand, mopts)
		return r.Key() == key
	}, f.minBudget)

	if err := os.MkdirAll(f.out, 0o777); err != nil {
		fmt.Fprintf(os.Stderr, "espfuzz: %v\n", err)
		return
	}
	write := func(file, data string) {
		if err := os.WriteFile(filepath.Join(f.out, file), []byte(data), 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "espfuzz: %v\n", err)
		}
	}
	write(name+".esp", min)
	write(name+".orig.esp", src)
	write(name+".report.txt", rep.String()+"\n")
	fmt.Fprintf(os.Stderr, "minimized reproducer: %s\n", filepath.Join(f.out, name+".esp"))
}

func hasMCStage(rep *fuzz.Report) bool {
	for _, b := range rep.Bugs {
		if len(b.Stage) >= 2 && b.Stage[:2] == "mc" {
			return true
		}
	}
	return false
}
