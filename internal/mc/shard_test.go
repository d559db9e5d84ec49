package mc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// hashCorpus builds a deterministic corpus shaped like encoded machine
// states: long runs of zero bytes (uvarint zeros for counters, status
// bytes) interleaved with small counters that vary between states.
func hashCorpus() []string {
	var keys []string
	// All-zero keys of every length: the regression family. The previous
	// scheme derived the two bit positions from FNV-1a and FNV-1 of the
	// same key; on zero bytes the two variants' multiply and xor steps
	// commute, so the hashes were *identical* and the second position a
	// pure function of the first — SPIN's two-bit scheme collapsed to
	// single-bit hashing.
	for n := 1; n <= 256; n++ {
		keys = append(keys, string(make([]byte, n)))
	}
	rng := rand.New(rand.NewSource(7))
	prefix := make([]byte, 24)
	for i := range prefix {
		prefix[i] = byte(rng.Intn(6))
	}
	for i := 0; i < 30000; i++ {
		buf := append([]byte(nil), prefix...)
		buf = binary.AppendUvarint(buf, uint64(i))
		buf = binary.AppendUvarint(buf, uint64(i%7))
		keys = append(keys, string(buf))
	}
	return keys
}

// TestBitPositionHashesIndependentlySeeded: the two 64-bit hashes the
// positions are cut from (the key hash and its reseeded remix) must never
// coincide on the corpus, and no two corpus keys may share a key hash.
// The old FNV-1a/FNV-1 pairing failed the first on every all-zero key.
func TestBitPositionHashesIndependentlySeeded(t *testing.T) {
	seen := make(map[uint64]string)
	for _, k := range hashCorpus() {
		h := hashKey([]byte(k))
		if h == mix64(h^hashSeedB) {
			t.Fatalf("position hashes coincide on %q (len %d)", k, len(k))
		}
		if prev, ok := seen[h]; ok {
			t.Fatalf("keys %q and %q share hash %#x", prev, k, h)
		}
		seen[h] = k
	}
}

// TestBitPositionsStatisticallyIndependent: across the corpus the two
// positions behave like independent uniform draws — the equal-position
// rate and the conditional collision rate (given a collision in the
// first position, how often the second collides too) stay near 1/m.
func TestBitPositionsStatisticallyIndependent(t *testing.T) {
	keys := hashCorpus()
	const bits = 10
	mask := uint64(1)<<bits - 1
	m := float64(mask + 1)

	same := 0
	byA := make(map[uint64][]uint64)
	for _, k := range keys {
		a, b := bitPositions(hashKey([]byte(k)), mask)
		if a == b {
			same++
		}
		byA[a] = append(byA[a], b)
	}
	// Equal positions: expected N/m ≈ 29.6; allow 4x before failing.
	if max := 4 * float64(len(keys)) / m; float64(same) > max {
		t.Errorf("positions equal for %d of %d keys (expected ≈%.0f, allowed %.0f)",
			same, len(keys), float64(len(keys))/m, max)
	}
	// Conditional collisions: for pairs colliding in position a, position
	// b must still collide at ≈1/m, not systematically.
	pairs, coll := 0, 0
	for _, bs := range byA {
		for i := 0; i < len(bs); i++ {
			for j := i + 1; j < len(bs); j++ {
				pairs++
				if bs[i] == bs[j] {
					coll++
				}
			}
		}
	}
	if pairs == 0 {
		t.Fatal("corpus produced no first-position collisions; enlarge it")
	}
	if max := 4 * float64(pairs) / m; float64(coll) > max {
		t.Errorf("of %d first-position collisions, %d also collide in the second (expected ≈%.0f, allowed %.0f)",
			pairs, coll, float64(pairs)/m, max)
	}
	// And they must depend on the key at all.
	if len(byA) < 100 {
		t.Errorf("first position takes only %d values over the corpus", len(byA))
	}
}

func TestHashKeyDeterministic(t *testing.T) {
	for _, k := range []string{"", "a", "\x00\x00", "state"} {
		if hashKey([]byte(k)) != hashKey([]byte(k)) {
			t.Fatalf("hashKey not deterministic on %q", k)
		}
	}
}

// TestHashKeyTailAndLength: the word-wise hash must see the bytes past
// the last full word and the length itself. Keys that differ only in one
// tail byte, or only by trailing zero bytes, hash apart.
func TestHashKeyTailAndLength(t *testing.T) {
	seen := make(map[uint64][]byte)
	add := func(k []byte) {
		h := hashKey(k)
		if prev, ok := seen[h]; ok {
			t.Fatalf("keys %x and %x share hash %#x", prev, k, h)
		}
		seen[h] = append([]byte(nil), k...)
	}
	for n := 0; n <= 40; n++ {
		base := make([]byte, n)
		for i := range base {
			base[i] = byte(i*7 + 1)
		}
		add(base) // also the zero-padded extension of every shorter key
		for tail := n &^ 7; tail < n; tail++ {
			for _, b := range []byte{0, 0xff} {
				k := append([]byte(nil), base...)
				k[tail] = b
				add(k)
			}
		}
	}
	for n := 0; n <= 40; n++ {
		add(append(make([]byte, n), 0xfe)) // zero runs of every length, then a marker
	}
}

// segKey builds key i of a corpus shaped like segmented machine-state
// keys: segment 0 plays the live-object count, and segment j ≥ 1 is one
// of five per-process values chosen by base-5 digit j-1 of i, so keys
// share most of their segments with many others. It returns the key and
// its segment ends.
func segKey(i, nseg int) ([]byte, []int32) {
	var key []byte
	ends := make([]int32, 0, nseg)
	key = append(key, byte(i%3))
	ends = append(ends, int32(len(key)))
	for j := 1; j < nseg; j++ {
		d := i % 5
		i /= 5
		key = fmt.Appendf(key, "p%d:%s", j, strings.Repeat("x", d))
		ends = append(ends, int32(len(key)))
	}
	return key, ends
}

// TestShardedCollapseSetTryAddOnce: hammered from many goroutines with
// multi-segment keys that share most of their segments, every key is
// admitted exactly once — the property the parallel search's state count
// rests on — and every goroutine gets the same handle for it. Each
// goroutine loads the state it last touched as the parent of its next
// key, so segments are both reused from the parent and interned.
func TestShardedCollapseSetTryAddOnce(t *testing.T) {
	const keys, goroutines, nseg = 2000, 8, 6
	s := newCollapseSet(nseg)
	var wg sync.WaitGroup
	wins := make([]int64, goroutines)
	refs := make([][]stateRef, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sc keyScratch
			refs[g] = make([]stateRef, keys)
			for n := 0; n < keys; n++ {
				i := (n*7 + g*251) % keys // each goroutine its own order
				k, ends := segKey(i, nseg)
				ref, ok := s.TryAdd(&sc, k, ends, nil)
				if ok {
					wins[g]++
				}
				refs[g][i] = ref
				s.Parent(&sc, ref)
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, w := range wins {
		total += w
	}
	if total != keys {
		t.Errorf("%d TryAdd wins for %d distinct keys", total, keys)
	}
	for g := 1; g < goroutines; g++ {
		for i := range refs[g] {
			if refs[g][i] != refs[0][i] {
				t.Fatalf("key %d: goroutine %d got handle %#x, goroutine 0 %#x", i, g, refs[g][i], refs[0][i])
			}
		}
	}
	distinct := make([]map[string]bool, nseg)
	for i := 0; i < keys; i++ {
		k, ends := segKey(i, nseg)
		start := int32(0)
		for slot, end := range ends {
			if distinct[slot] == nil {
				distinct[slot] = map[string]bool{}
			}
			distinct[slot][string(k[start:end])] = true
			start = end
		}
	}
	for slot := range distinct {
		if got, want := len(s.segs[slot].ends), len(distinct[slot]); got != want {
			t.Errorf("slot %d interned %d segments, want %d", slot, got, want)
		}
	}
	if s.MemBytes() == 0 {
		t.Error("MemBytes = 0 after inserts")
	}
}

// TestCollapseSetParentSegments: Parent reproduces the admitted key's
// segments, and the closed flag is per state.
func TestCollapseSetParentSegments(t *testing.T) {
	const nseg = 4
	s := newCollapseSet(nseg)
	var sc keyScratch
	var refs []stateRef
	for i := 0; i < 200; i++ {
		k, ends := segKey(i, nseg)
		ref, ok := s.TryAdd(&sc, k, ends, nil)
		if !ok {
			t.Fatalf("key %d not admitted", i)
		}
		refs = append(refs, ref)
		s.Parent(&sc, ref)
		if string(sc.key) != string(k) || !slices.Equal(sc.ends, ends) {
			t.Fatalf("key %d: Parent loaded %q %v, want %q %v", i, sc.key, sc.ends, k, ends)
		}
	}
	for i, ref := range refs {
		if i%3 == 0 {
			s.MarkClosed(ref)
		}
	}
	for i, ref := range refs {
		if got := s.Closed(ref); got != (i%3 == 0) {
			t.Errorf("state %d: Closed = %v", i, got)
		}
	}
}

// TestCollapseTablesResolveHashCollisions: entries whose hashes collide
// are told apart by their bytes (segments) or IDs (vectors), including
// across a table's growth.
func TestCollapseTablesResolveHashCollisions(t *testing.T) {
	var segs segTable
	var sh stateShard
	for i := 0; i < 100; i++ {
		seg := []byte(fmt.Sprintf("seg%d", i))
		if id := segs.intern(seg, 7); id != uint32(i) {
			t.Fatalf("segment %d interned as %d", i, id)
		}
		vec := []uint32{uint32(i), 1, 2}
		if idx, added := sh.insert(vec, 7); !added || idx != i {
			t.Fatalf("vector %d: index %d, added %v", i, idx, added)
		}
	}
	for i := 0; i < 100; i++ {
		if id := segs.intern([]byte(fmt.Sprintf("seg%d", i)), 7); id != uint32(i) {
			t.Errorf("segment %d re-interned as %d", i, id)
		}
		if idx, added := sh.insert([]uint32{uint32(i), 1, 2}, 7); added || idx != i {
			t.Errorf("vector %d re-inserted: index %d, added %v", i, idx, added)
		}
	}
}

// TestShardedBitSetTryAddOnce: same single-admission guarantee for the
// bit-state set (within its false-positive tolerance: a key may lose to
// a hash collision, but never win twice).
func TestShardedBitSetTryAddOnce(t *testing.T) {
	const keys, goroutines = 2000, 8
	s := newShardedBitSet(22) // large enough that collisions are unlikely
	var wg sync.WaitGroup
	wins := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := []byte(fmt.Sprintf("key-%d", i))
				if _, ok := s.TryAdd(nil, k, nil, nil); ok {
					wins[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, w := range wins {
		total += w
	}
	if total > keys {
		t.Errorf("%d TryAdd wins for %d distinct keys: some key won twice", total, keys)
	}
	if total < keys-keys/10 {
		t.Errorf("only %d of %d keys admitted: bit array too collision-prone", total, keys)
	}
}

func TestShardedBitSetMemBytes(t *testing.T) {
	if got := newShardedBitSet(16).MemBytes(); got != 1<<16/8 {
		t.Errorf("MemBytes = %d, want %d", got, 1<<16/8)
	}
}

// TestFillCapsBitstateBits: a bit-array size above MaxBitstateBits is
// capped, so a library caller cannot ask for 1<<64 bits (an empty array
// that panics on the first insert) or for more memory than the host has.
// Smaller sizes, and the zero value's default, pass through unchanged.
func TestFillCapsBitstateBits(t *testing.T) {
	for _, c := range []struct{ bits, want uint }{
		{0, 24},
		{20, 20},
		{MaxBitstateBits, MaxBitstateBits},
		{MaxBitstateBits + 1, MaxBitstateBits},
		{36, MaxBitstateBits},
		{64, MaxBitstateBits},
		{1000, MaxBitstateBits},
	} {
		o := Options{BitstateBits: c.bits}
		o.fill()
		if o.BitstateBits != c.want {
			t.Errorf("BitstateBits %d filled to %d, want %d", c.bits, o.BitstateBits, c.want)
		}
	}
}
