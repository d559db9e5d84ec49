package vm_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"esplang/internal/vm"
)

// TestPropertyFIFOPreservesSequences: any integer sequence pushed through
// the ESP FIFO process comes out identical — a property of the whole
// pipeline (compiler, pattern dispatch, alt guards, scheduler).
func TestPropertyFIFOPreservesSequences(t *testing.T) {
	prog := compileSrc(t, `
const CAP = 4;
channel chan1: int external writer
channel chan2: int external reader
interface i1( out chan1) { Msg( $v) }
process fifo {
    $q: #array of int = #{ CAP -> 0};
    $hd = 0;
    $tl = 0;
    while (true) {
        alt {
            case( !(tl - hd == CAP), in( chan1, $v)) { q[tl % CAP] = v; tl = tl + 1; }
            case( !(tl == hd), out( chan2, q[hd % CAP])) { hd = hd + 1; }
        }
    }
}
`)
	f := func(vals []int16) bool {
		m := vm.New(prog, vm.Config{MaxLiveObjects: 16})
		in := &vm.QueueWriter{}
		out := &vm.CollectReader{}
		if err := m.BindWriter("chan1", in); err != nil {
			t.Fatal(err)
		}
		if err := m.BindReader("chan2", out); err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			v := int64(v)
			in.Push(0, func(*vm.Machine) vm.Value { return vm.IntVal(v) })
		}
		if m.Run() == vm.RunFault {
			return false
		}
		if len(out.Values) != len(vals) {
			return false
		}
		for i, v := range vals {
			if out.Values[i].Int() != int64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNoLeaksUnderRandomTraffic: the producer/consumer pipeline
// with explicit refcounting ends with an empty heap for any message count.
func TestPropertyNoLeaksUnderRandomTraffic(t *testing.T) {
	mkSrc := `
type dataT = array of int
type msgT = record of { tag: int, data: dataT }
channel c: msgT
channel feed: int external writer
channel done: int external reader
interface f( out feed) { N( $v) }
process producer {
    while (true) {
        in( feed, $n);
        $d: dataT = { 3 -> n};
        out( c, { n, d});
        unlink( d);
    }
}
process consumer {
    while (true) {
        in( c, { $tag, $data});
        assert( data[0] == tag);
        unlink( data);
        out( done, tag);
    }
}
`
	prog := compileSrc(t, mkSrc)
	f := func(n uint8) bool {
		count := int(n % 40)
		m := vm.New(prog, vm.Config{MaxLiveObjects: 16})
		in := &vm.QueueWriter{}
		out := &vm.CollectReader{}
		if err := m.BindWriter("feed", in); err != nil {
			t.Fatal(err)
		}
		if err := m.BindReader("done", out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < count; i++ {
			i := int64(i)
			in.Push(0, func(*vm.Machine) vm.Value { return vm.IntVal(i) })
		}
		if m.Run() == vm.RunFault {
			return false
		}
		return len(out.Values) == count && m.Heap().Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropertyEncodeStateDeterministic: two machines run through the same
// manual-mode transition sequence produce identical state encodings at
// every step (the model checker's dedup depends on it).
func TestPropertyEncodeStateDeterministic(t *testing.T) {
	src := `
type r = record of { ret: int, v: int }
channel req: r
channel rep: r
process server {
    while (true) {
        in( req, { $ret, $v});
        out( rep, { ret, v + 1});
    }
}
process clientA {
    $n = 0;
    while (n < 3) {
        out( req, { @, n});
        in( rep, { @, $x});
        n = n + 1;
    }
}
process clientB {
    $n = 0;
    while (n < 3) {
        out( req, { @, n * 10});
        in( rep, { @, $x});
        n = n + 1;
    }
}
`
	prog := compileSrc(t, src)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := vm.New(prog, vm.Config{Manual: true})
		b := vm.New(prog, vm.Config{Manual: true})
		a.Settle()
		b.Settle()
		for step := 0; step < 20; step++ {
			if a.EncodeState() != b.EncodeState() {
				return false
			}
			comms := a.EnabledComms()
			if len(comms) == 0 {
				break
			}
			c := comms[rng.Intn(len(comms))]
			a.FireComm(c)
			b.FireComm(c)
			if (a.Fault() == nil) != (b.Fault() == nil) {
				return false
			}
			if a.Fault() != nil {
				break
			}
		}
		return a.EncodeState() == b.EncodeState()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertySnapshotTransparent: a snapshot restored into a sibling
// machine behaves like its source — firing the same choice on both yields
// the same key (the checker's save/restore).
func TestPropertySnapshotTransparent(t *testing.T) {
	prog := compileSrc(t, `
channel c: int
channel d: int
process p1 { $i = 0; while (i < 4) { out( c, i); in( d, $r); i = i + 1; } }
process p2 { while (true) { in( c, $v); out( d, v * 2); } }
`)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := vm.New(prog, vm.Config{Manual: true})
		sib := vm.New(prog, vm.Config{Manual: true})
		m.Settle()
		var snap *vm.SavedState
		for step := 0; step < 10; step++ {
			comms := m.EnabledComms()
			if len(comms) == 0 {
				break
			}
			snap = m.Save(snap)
			sib.RestoreState(snap)
			c := comms[rng.Intn(len(comms))]
			m.FireComm(c)
			sib.FireComm(c)
			if m.EncodeState() != sib.EncodeState() {
				return false
			}
			m, sib = sib, m // continue on the sibling: must behave identically
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropertyModesAgreeOnArithmetic: the three transfer/blocking
// implementations compute identical results for random inputs.
func TestPropertyModesAgreeOnArithmetic(t *testing.T) {
	prog := compileSrc(t, `
channel inC: int external writer
channel outC: int external reader
interface i( out inC) { Put( $v) }
process calc {
    while (true) {
        in( inC, $x);
        $y = x * 3 - 7;
        if (y < 0) { y = -y; }
        out( outC, y % 1000);
    }
}
`)
	run := func(cfg vm.Config, vals []int16) ([]int64, bool) {
		m := vm.New(prog, cfg)
		in := &vm.QueueWriter{}
		out := &vm.CollectReader{}
		if err := m.BindWriter("inC", in); err != nil {
			t.Fatal(err)
		}
		if err := m.BindReader("outC", out); err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			v := int64(v)
			in.Push(0, func(*vm.Machine) vm.Value { return vm.IntVal(v) })
		}
		if m.Run() == vm.RunFault {
			return nil, false
		}
		var res []int64
		for _, s := range out.Values {
			res = append(res, s.Int())
		}
		return res, true
	}
	f := func(vals []int16) bool {
		a, ok1 := run(vm.Config{}, vals)
		b, ok2 := run(vm.Config{UseWaitQueues: true}, vals)
		c, ok3 := run(vm.Config{ForceDeepCopy: true}, vals)
		if !ok1 || !ok2 || !ok3 || len(a) != len(b) || len(a) != len(c) {
			return false
		}
		for i := range a {
			if a[i] != b[i] || a[i] != c[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
