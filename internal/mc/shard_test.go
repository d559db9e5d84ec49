package mc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
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

// TestShardedMapSetTryAddOnce: hammered from many goroutines, every key
// is admitted exactly once — the property the parallel search's state
// count rests on.
func TestShardedMapSetTryAddOnce(t *testing.T) {
	const keys, goroutines = 2000, 8
	s := newShardedMapSet()
	var wg sync.WaitGroup
	wins := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				k := []byte(fmt.Sprintf("key-%d", i))
				if _, ok := s.TryAdd(hashKey(k), k); ok {
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
	if total != keys {
		t.Errorf("%d TryAdd wins for %d distinct keys", total, keys)
	}
	if s.MemBytes() == 0 {
		t.Error("MemBytes = 0 after inserts")
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
				if _, ok := s.TryAdd(hashKey(k), k); ok {
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
