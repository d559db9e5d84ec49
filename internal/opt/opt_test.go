package opt_test

import (
	"testing"

	"esplang/internal/check"
	"esplang/internal/compile"
	"esplang/internal/ir"
	"esplang/internal/opt"
	"esplang/internal/parser"
	"esplang/internal/vm"
)

func compileSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := check.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return compile.Program(prog, info)
}

func instrCount(p *ir.Program) int {
	n := 0
	for _, pr := range p.Procs {
		n += len(pr.Code)
	}
	return n
}

// runCollect executes the program feeding ins on channel "inC" (if
// present) and collecting from "outC".
func runCollect(t *testing.T, p *ir.Program, ins []int64) []int64 {
	t.Helper()
	m := vm.New(p, vm.Config{MaxLiveObjects: 256})
	if p.ChannelByName("inC") != nil {
		q := &vm.QueueWriter{}
		for _, v := range ins {
			v := v
			q.Push(0, func(_ *vm.Machine) vm.Value { return vm.IntVal(v) })
		}
		if err := m.BindWriter("inC", q); err != nil {
			t.Fatal(err)
		}
	}
	c := &vm.CollectReader{}
	if err := m.BindReader("outC", c); err != nil {
		t.Fatal(err)
	}
	res := m.Run()
	if res == vm.RunFault {
		t.Fatalf("fault: %v", m.Fault())
	}
	var out []int64
	for _, s := range c.Values {
		out = append(out, s.Int())
	}
	return out
}

// checkEquivalent verifies the optimized program produces identical
// output to the original.
func checkEquivalent(t *testing.T, src string, ins []int64) (before, after int) {
	t.Helper()
	p1 := compileSrc(t, src)
	want := runCollect(t, compileSrc(t, src), ins)
	p2 := opt.Optimize(compileSrc(t, src), opt.All())
	got := runCollect(t, p2, ins)
	if len(got) != len(want) {
		t.Fatalf("optimized program produced %d outputs, original %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("output %d: optimized %d, original %d", i, got[i], want[i])
		}
	}
	return instrCount(p1), instrCount(p2)
}

func TestConstantFolding(t *testing.T) {
	before, after := checkEquivalent(t, `
channel outC: int external reader
process p {
    $x = 2 + 3 * 4;
    $y = (10 - 4) / 2;
    $z = x + y;
    if (1 < 2) { out( outC, z); }
}
`, nil)
	if after >= before {
		t.Errorf("no reduction: %d -> %d instructions", before, after)
	}
	// The folded program should compute 14 + 3 = 17.
	p := opt.Optimize(compileSrc(t, `
channel outC: int external reader
process p {
    $x = 2 + 3 * 4;
    out( outC, x);
}
`), opt.All())
	found := false
	for _, in := range p.Procs[0].Code {
		if in.Op == ir.Const && in.Val == 14 {
			found = true
		}
	}
	if !found {
		t.Error("2 + 3*4 not folded to 14")
	}
}

func TestBranchFolding(t *testing.T) {
	p := opt.Optimize(compileSrc(t, `
channel outC: int external reader
process p {
    if (true) { out( outC, 1); } else { out( outC, 2); }
}
`), opt.All())
	// The else branch is unreachable after folding; "const 2" must be gone.
	for _, in := range p.Procs[0].Code {
		if in.Op == ir.Const && in.Val == 2 {
			t.Error("dead else branch not eliminated")
		}
	}
}

func TestWhileTrueNoConditionCode(t *testing.T) {
	// while(true) compiled via Cond=nil has no test; while (true) written
	// explicitly must fold to the same shape.
	p := opt.Optimize(compileSrc(t, `
channel inC: int external writer
channel outC: int external reader
interface i( out inC) { Put( $v) }
process p {
    while (true) {
        in( inC, $v);
        out( outC, v);
    }
}
`), opt.All())
	for _, in := range p.Procs[0].Code {
		if in.Op == ir.JumpIfFalse || in.Op == ir.JumpIfTrue {
			t.Error("while(true) still has a conditional branch")
		}
	}
}

func TestCopyPropagation(t *testing.T) {
	before, after := checkEquivalent(t, `
channel inC: int external writer
channel outC: int external reader
interface i( out inC) { Put( $v) }
process p {
    while (true) {
        in( inC, $a);
        $b = a;
        $c = b;
        out( outC, c);
    }
}
`, []int64{5, 9})
	if after >= before {
		t.Errorf("no reduction: %d -> %d instructions", before, after)
	}
}

func TestCastReuse(t *testing.T) {
	p := opt.Optimize(compileSrc(t, `
channel c: array of int
channel outC: int external reader
process maker {
    $a: #array of int = #{ 4 -> 7};
    out( c, immutable(a));
}
process user {
    in( c, $d);
    out( outC, d[0]);
    unlink( d);
}
`), opt.All())
	found := false
	for _, in := range p.ProcByName("maker").Code {
		if in.Op == ir.CastReuse {
			found = true
		}
		if in.Op == ir.CastCopy {
			t.Error("CastCopy survived although the source is dead")
		}
	}
	if !found {
		t.Error("cast not converted to in-place reuse")
	}
	// Behavior: the receiver still sees 7, and reuse must not fault.
	m := vm.New(p, vm.Config{MaxLiveObjects: 16})
	cr := &vm.CollectReader{}
	if err := m.BindReader("outC", cr); err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res == vm.RunFault {
		t.Fatalf("fault: %v", m.Fault())
	}
	if len(cr.Values) != 1 || cr.Values[0].Int() != 7 {
		t.Errorf("got %v, want [7]", cr.Values)
	}
	// The reuse elides one allocation: only the array itself is created.
	if m.Stats.Allocs != 1 {
		t.Errorf("allocations = %d, want 1 (copy elided)", m.Stats.Allocs)
	}
}

func TestCastNotReusedWhenSourceLive(t *testing.T) {
	p := opt.Optimize(compileSrc(t, `
channel c: array of int
channel outC: int external reader
process maker {
    $a: #array of int = #{ 4 -> 7};
    out( c, immutable(a));
    a[0] = 9; // a is still used: the cast must copy
    out( outC, a[0]);
    unlink( a);
}
process user {
    in( c, $d);
    unlink( d);
}
`), opt.All())
	for _, in := range p.ProcByName("maker").Code {
		if in.Op == ir.CastReuse {
			t.Fatal("cast reused although the source is still live")
		}
	}
}

func TestOptimizedAltStillWorks(t *testing.T) {
	checkEquivalent(t, `
const CAP = 4;
channel inC: int external writer
channel outC: int external reader
interface i( out inC) { Put( $v) }
process fifo {
    $q: #array of int = #{ CAP -> 0};
    $hd = 0;
    $tl = 0;
    while (true) {
        alt {
            case( !(tl - hd == CAP), in( inC, $v)) { q[tl % CAP] = v; tl = tl + 1; }
            case( !(tl == hd), out( outC, q[hd % CAP])) { hd = hd + 1; }
        }
    }
}
`, []int64{3, 1, 4, 1, 5, 9, 2, 6})
}

func TestOptimizedPatternsStillWork(t *testing.T) {
	checkEquivalent(t, `
type sendT = record of { dest: int, vAddr: int, size: int}
type userT = union of { send: sendT, update: sendT}
channel c: userT
channel outC: int external reader
process w {
    $n = 0;
    while (n < 4) {
        out( c, { send |> { n, n*2, n*3}});
        n = n + 1;
    }
}
process r {
    while (true) {
        in( c, { send |> { $d, $v, $s}});
        out( outC, d + v + s);
    }
}
process r2 {
    while (true) {
        in( c, { update |> $u});
        unlink( u);
    }
}
`, nil)
}

func TestIdempotent(t *testing.T) {
	p1 := opt.Optimize(compileSrc(t, `
channel outC: int external reader
process p {
    $x = 1 + 2;
    out( outC, x);
}
`), opt.All())
	n1 := instrCount(p1)
	p2 := opt.Optimize(p1, opt.All())
	if instrCount(p2) != n1 {
		t.Errorf("second optimization round changed code: %d -> %d", n1, instrCount(p2))
	}
}

func TestZeroOptionsNoChange(t *testing.T) {
	src := `
channel outC: int external reader
process p {
    $x = 1 + 2;
    out( outC, x);
}
`
	p1 := compileSrc(t, src)
	n := instrCount(p1)
	opt.Optimize(p1, opt.Options{})
	if instrCount(p1) != n {
		t.Error("zero options modified the program")
	}
}

func TestCrossProcConstantPropagation(t *testing.T) {
	// Every sender puts the constant 4096 in the size field; the
	// receiver's bound slot folds to a constant (§6.2 future work).
	p := compileSrc(t, `
type reqT = record of { addr: int, size: int }
channel c: reqT
channel outC: int external reader
process w1 { out( c, { 100, 4096}); }
process w2 { out( c, { 200, 4096}); }
process r {
    $n = 0;
    while (n < 2) {
        in( c, { $addr, $size});
        out( outC, size + size);
        n = n + 1;
    }
}
`)
	rewritten := opt.CrossProcConstants(p)
	if rewritten == 0 {
		t.Fatal("no loads folded")
	}
	// The receiver's loads of size are now constants; after const
	// folding, size + size becomes 8192.
	opt.Optimize(p, opt.Options{ConstFold: true, DCE: true})
	found := false
	for _, in := range p.ProcByName("r").Code {
		if in.Op == ir.Const && in.Val == 8192 {
			found = true
		}
	}
	if !found {
		t.Error("size + size not folded to 8192")
	}
	// Behavior must be unchanged.
	m := vm.New(p, vm.Config{})
	cr := &vm.CollectReader{}
	if err := m.BindReader("outC", cr); err != nil {
		t.Fatal(err)
	}
	if res := m.Run(); res == vm.RunFault {
		t.Fatalf("fault: %v", m.Fault())
	}
	if len(cr.Values) != 2 || cr.Values[0].Int() != 8192 {
		t.Errorf("outputs = %v", cr.Values)
	}
}

func TestCrossProcRespectsDisagreeingSenders(t *testing.T) {
	p := compileSrc(t, `
type reqT = record of { size: int }
channel c: reqT
channel outC: int external reader
process w1 { out( c, { 1}); }
process w2 { out( c, { 2}); }
process r {
    $n = 0;
    while (n < 2) {
        in( c, { $size});
        out( outC, size);
        n = n + 1;
    }
}
`)
	if n := opt.CrossProcConstants(p); n != 0 {
		t.Fatalf("folded %d loads despite disagreeing senders", n)
	}
}

func TestCrossProcRespectsDynamicSenders(t *testing.T) {
	p := compileSrc(t, `
type reqT = record of { size: int }
channel c: reqT
channel outC: int external reader
process w {
    $n = 0;
    while (n < 3) {
        out( c, { n});
        n = n + 1;
    }
}
process r {
    $t = 0;
    $k = 0;
    while (k < 3) {
        in( c, { $size});
        t = t + size;
        k = k + 1;
    }
    out( outC, t);
}
`)
	if n := opt.CrossProcConstants(p); n != 0 {
		t.Fatalf("folded %d loads despite a dynamic sender", n)
	}
	m := vm.New(p, vm.Config{})
	cr := &vm.CollectReader{}
	if err := m.BindReader("outC", cr); err != nil {
		t.Fatal(err)
	}
	m.Run()
	if len(cr.Values) != 1 || cr.Values[0].Int() != 3 {
		t.Errorf("outputs = %v, want [3]", cr.Values)
	}
}

func TestCrossProcRespectsExternalWriters(t *testing.T) {
	p := compileSrc(t, `
channel c: int external writer
channel outC: int external reader
interface i( out c) { Put( $v) }
process r {
    while (true) {
        in( c, $v);
        out( outC, v);
    }
}
`)
	if n := opt.CrossProcConstants(p); n != 0 {
		t.Fatalf("folded %d loads from an external channel", n)
	}
}

func TestCrossProcRespectsShortCircuitValues(t *testing.T) {
	// A value containing && compiles with a jump into the evaluation
	// window; the recognizer must not derive the short-circuit branch's
	// constant.
	p := compileSrc(t, `
type reqT = record of { flag: bool }
channel c: reqT
channel outC: int external reader
process w {
    $a = true;
    $b = false;
    out( c, { a && b});
    out( c, { a && b});
}
process r {
    $n = 0;
    while (n < 2) {
        in( c, { $f});
        if (f) { out( outC, 1); } else { out( outC, 0); }
        n = n + 1;
    }
}
`)
	if n := opt.CrossProcConstants(p); n != 0 {
		t.Fatalf("folded %d loads through a short-circuit expression", n)
	}
}

func TestCrossProcRespectsShortCircuitScalar(t *testing.T) {
	// A bare && value: both branches converge on the Send itself, so the
	// instruction before the Send (the false branch's constant 0) is only
	// one path's value. The receiver's binding must not fold to it.
	p := compileSrc(t, `
channel c: bool
channel outC: bool external reader
process w {
    out( c, true && true);
}
process r {
    in( c, $b);
    out( outC, b);
}
`)
	if n := opt.CrossProcConstants(p); n != 0 {
		t.Fatalf("folded %d loads through a short-circuit value", n)
	}
}

func TestCrossProcSelfIDAndAltArms(t *testing.T) {
	// @ is a per-process constant, and alt send arms contribute their
	// AST shapes; both senders here put constant 7 in the payload.
	p := compileSrc(t, `
type reqT = record of { v: int }
channel c: reqT
channel tick: int external writer
channel outC: int external reader
interface t( out tick) { T( $x) }
process w1 {
    while (true) {
        alt {
            case( in( tick, $x)) { skip; }
            case( out( c, { 7})) { skip; }
        }
    }
}
process r {
    while (true) {
        in( c, { $v});
        out( outC, v * 2);
    }
}
`)
	if n := opt.CrossProcConstants(p); n == 0 {
		t.Fatal("alt-arm constant not propagated")
	}
	opt.Optimize(p, opt.Options{ConstFold: true, DCE: true})
	found := false
	for _, in := range p.ProcByName("r").Code {
		if in.Op == ir.Const && in.Val == 14 {
			found = true
		}
	}
	if !found {
		t.Error("v * 2 not folded to 14")
	}
}
