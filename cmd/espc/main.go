// Command espc is the ESP compiler driver: from one ESP program it emits
// the two targets of the paper's Figure 4 — a C file to build into device
// firmware, and a Promela specification for the SPIN model checker.
//
// Usage:
//
//	espc [flags] program.esp
//
// With no output flags it writes program.c and program.pml next to the
// input; espverify model-checks the same program with the bundled
// checker. Compile errors are reported with caret-marked source
// excerpts:
//
//	program.esp:12:9: error: undefined variable x
//	    out( c, x);
//	            ^
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	esplang "esplang"
	"esplang/internal/diag"
)

func main() {
	var (
		cOut      = flag.String("c", "", "C output path (default: <input>.c)")
		pmlOut    = flag.String("pml", "", "Promela output path (default: <input>.pml)")
		noC       = flag.Bool("no-c", false, "skip the C target")
		noPml     = flag.Bool("no-pml", false, "skip the Promela target")
		noOpt     = flag.Bool("O0", false, "disable the §6.1 IR optimizations")
		disasm    = flag.Bool("S", false, "print the compiled IR to stdout")
		dumpFused = flag.Bool("dump-fused", false, "print the fused-engine superinstruction translation to stdout")
		dumpIndep = flag.Bool("dump-indep", false, "print the transition-independence table (channel touch sets, heap cleanliness, ref-flow regions, independent pairs) to stdout")
		vet       = flag.Bool("vet", false, "print espvet static-analysis findings to stderr")
		vetErr    = flag.Bool("vet-err", false, "like -vet, but findings fail the build (exit 1)")
		vetOff    = flag.String("vet-disable", "", "comma-separated espvet check IDs or names to suppress")
		stats     = flag.Bool("stats", false, "print program statistics")
		optStats  = flag.Bool("opt-stats", false, "print per-pass optimizer statistics")
		verifyIR  = flag.Bool("verify-ir", false, "check IR structural invariants after compilation and after every optimizer pass")
		maxObjs   = flag.Int("max-objects", 1024, "C target: static heap size (0 = 1024)")
		instances = flag.Int("instances", 1, "Promela target: value of the INSTANCES constant for a hand-written SPIN driver (the model itself runs one copy)")
		bound     = flag.Int("bound", 16, "Promela target: default objectId table size (0 = 16)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: espc [flags] program.esp")
		flag.PrintDefaults()
		os.Exit(2)
	}
	// Zero selects a size's default; a negative size, or fewer than one
	// Promela instance, would silently emit the defaults.
	for _, f := range []struct {
		name string
		v    int
	}{{"max-objects", *maxObjs}, {"bound", *bound}} {
		if f.v < 0 {
			fmt.Fprintf(os.Stderr, "espc: -%s must not be negative, got %d\n", f.name, f.v)
			os.Exit(2)
		}
	}
	if *instances < 1 {
		fmt.Fprintf(os.Stderr, "espc: -instances must be at least 1, got %d\n", *instances)
		os.Exit(2)
	}
	in := flag.Arg(0)
	src, err := os.ReadFile(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "espc: %v\n", err)
		os.Exit(1)
	}
	vetDisable := map[string]bool{}
	for _, key := range strings.Split(*vetOff, ",") {
		if key = strings.TrimSpace(key); key != "" {
			vetDisable[key] = true
		}
	}
	copts := esplang.CompileOptions{
		Name:       in,
		File:       in,
		NoOptimize: *noOpt,
		VerifyIR:   *verifyIR,
		VetDisable: vetDisable,
	}
	prog, err := esplang.Compile(string(src), copts)
	if err != nil {
		fmt.Fprintln(os.Stderr, diag.RenderError(err, in, string(src)))
		os.Exit(1)
	}
	if (*vet || *vetErr) && len(prog.Findings) > 0 {
		fmt.Fprint(os.Stderr, prog.RenderFindings())
		if *vetErr {
			os.Exit(1)
		}
	}

	base := strings.TrimSuffix(in, filepath.Ext(in))
	if *disasm {
		fmt.Print(prog.Disasm())
	}
	if *dumpFused {
		fmt.Print(prog.DisasmFused())
	}
	if *dumpIndep {
		fmt.Print(prog.DumpIndependence())
	}
	if *stats {
		s := prog.Stats()
		fmt.Printf("%d processes, %d channels, %d lines (%d decl + %d process), %d IR instructions\n",
			s.Processes, s.Channels, s.SourceLines, s.DeclLines, s.ProcessLines, s.Instructions)
	}
	if *optStats {
		if prog.OptStats != nil {
			fmt.Print(prog.OptStats.String())
		} else {
			fmt.Println("optimizer: disabled (-O0)")
		}
	}
	if !*noC {
		path := *cOut
		if path == "" {
			path = base + ".c"
		}
		c := prog.C(esplang.COptions{MaxObjects: *maxObjs})
		if err := os.WriteFile(path, []byte(c), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "espc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
	if !*noPml {
		path := *pmlOut
		if path == "" {
			path = base + ".pml"
		}
		pml := prog.Promela(esplang.PromelaOptions{Instances: *instances, DefaultBound: *bound})
		if err := os.WriteFile(path, []byte(pml), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "espc: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", path)
	}
}
