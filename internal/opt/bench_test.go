package opt_test

import (
	"testing"

	"esplang/internal/check"
	"esplang/internal/compile"
	"esplang/internal/ir"
	"esplang/internal/opt"
	"esplang/internal/parser"
)

// benchSrc exercises every pass: foldable arithmetic, copies, a
// constant-only channel for the cross-process analysis, and branches
// that fold away into unreachable code.
const benchSrc = `
channel cfg: int
channel data: int
channel out1: int

process confsrc {
    $i = 0;
    while (i < 4) {
        out( cfg, 40 + 2);
        i = i + 1;
    }
}

process worker {
    $n = 0;
    while (n < 4) {
        in( cfg, $k);
        $a = k;
        $b = a;
        $c = b + (2 * 3 - 6);
        if (1 < 2) {
            out( data, c);
        } else {
            out( data, 0 - 1);
        }
        n = n + 1;
    }
}

process collect {
    $n = 0;
    while (n < 4) {
        in( data, $v);
        assert( v == 42);
        out( out1, v);
        n = n + 1;
    }
}

process sink {
    $n = 0;
    while (n < 4) {
        in( out1, $v);
        n = n + 1;
    }
}
`

// BenchmarkOptimize measures the full verified-off pipeline on a program
// touching every pass. Lowering (parse/check/compile) is excluded from
// the timed region; optimization mutates in place, so each iteration
// re-lowers.
func BenchmarkOptimize(b *testing.B) {
	tree, err := parser.Parse([]byte(benchSrc))
	if err != nil {
		b.Fatal(err)
	}
	info, err := check.Check(tree)
	if err != nil {
		b.Fatal(err)
	}
	progs := make([]*ir.Program, b.N)
	for i := range progs {
		progs[i] = compile.Program(tree, info)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Run(progs[i], opt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeVerified is the same pipeline with ir.Verify running
// after every pass — the cost of the safety net.
func BenchmarkOptimizeVerified(b *testing.B) {
	tree, err := parser.Parse([]byte(benchSrc))
	if err != nil {
		b.Fatal(err)
	}
	info, err := check.Check(tree)
	if err != nil {
		b.Fatal(err)
	}
	opts := opt.Options{Verify: true}
	progs := make([]*ir.Program, b.N)
	for i := range progs {
		progs[i] = compile.Program(tree, info)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Run(progs[i], opts); err != nil {
			b.Fatal(err)
		}
	}
}
