package mc

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Visited-state structures for the frontier search. Both implementations
// are sharded: a shard is selected by the top bits of the key's hash (a
// hash prefix), and each shard has its own mutex, so the visited set is
// not the serialization point when many workers discover states at once.
// Every operation takes the key's hashKey, computed once per state by the
// caller.

const (
	shardBits = 6
	numShards = 1 << shardBits

	// hashSeed starts the key hash; hashSeedB reseeds the finalizer for
	// the second bit-state position. hashP1 and hashP2 are the xxHash64
	// round multipliers.
	hashSeed  = 14695981039346656037
	hashSeedB = 0x9e3779b97f4a7c15
	hashP1    = 0x9e3779b185ebca87
	hashP2    = 0xc2b2ae3d27d4eb4f
)

// hashKey hashes a visited-state key 8 bytes at a time. Each round
// (xxHash64's) is a bijection of both the running hash and the input
// word, so keys of one length that differ in any single word — the tail
// included — never collide; the length seeds the hash. The splitmix64
// finalizer makes every output bit depend on every input bit, which the
// two bit-state positions and the shard index (disjoint bit ranges of
// one hash) rely on.
func hashKey(key []byte) uint64 {
	h := hashSeed + uint64(len(key))*hashP1
	for ; len(key) >= 8; key = key[8:] {
		h = bits.RotateLeft64(h+binary.LittleEndian.Uint64(key)*hashP2, 31) * hashP1
	}
	if len(key) > 0 {
		var t uint64
		for i := len(key) - 1; i >= 0; i-- {
			t = t<<8 | uint64(key[i])
		}
		h = bits.RotateLeft64(h+t*hashP2, 31) * hashP1
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer, a bijection.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// bitPositions derives the two bit-state positions (SPIN's two-bit
// scheme, §5.1) from a key's hash: the low bits of the hash itself, and
// the low bits of the hash remixed under a second seed. Two keys that
// collide in the first position still draw the second independently;
// shard_test.go holds the independence regression.
func bitPositions(h, mask uint64) (uint64, uint64) {
	return h & mask, mix64(h^hashSeedB) & mask
}

// shardIndex picks a shard by hash prefix (the hash's top bits — disjoint
// from the low bits bitPositions masks out).
func shardIndex(h uint64) int {
	return int(h >> (64 - shardBits))
}

// shardedSet is the visited-state structure shared by the search workers.
// TryAdd atomically tests and records a key, returning true only the
// first time the key is seen: the check and the insert must be one
// operation, or two workers reaching the same state simultaneously would
// both count and expand it.
//
// MarkClosed/Closed support the partial-order reduction's cycle proviso
// (see expand): a state is "closed" once a worker has started expanding
// it. An ample set may defer transitions as long as one of its successor
// states is not closed yet — that successor's own (strictly later)
// expansion keeps the deferred transitions reachable. Implementations
// without per-key storage answer Closed conservatively with true, which
// degrades the proviso to "some successor is brand new" — less
// reduction, still sound.
//
// TryAdd copies the key only when it admits it, and returns that copy
// (empty for sets that store no keys) for the caller to pass back to
// MarkClosed, so the search never holds a second copy.
type shardedSet interface {
	TryAdd(h uint64, key []byte) (string, bool)
	MarkClosed(h uint64, key string)
	Closed(h uint64, key []byte) bool
	MemBytes() int64
}

// shardedMapSet is the exact (Exhaustive-mode) visited set. The value
// records whether the state's expansion has started (the reduction's
// closed flag); plain searches never read it.
type shardedMapSet struct {
	shards [numShards]mapShard
}

type mapShard struct {
	mu    sync.Mutex
	m     map[string]bool
	bytes int64
}

func newShardedMapSet() *shardedMapSet {
	s := &shardedMapSet{}
	for i := range s.shards {
		s.shards[i].m = make(map[string]bool)
	}
	return s
}

func (s *shardedMapSet) TryAdd(h uint64, key []byte) (string, bool) {
	sh := &s.shards[shardIndex(h)]
	sh.mu.Lock()
	if _, ok := sh.m[string(key)]; ok {
		sh.mu.Unlock()
		return "", false
	}
	k := string(key)
	sh.m[k] = false
	sh.bytes += int64(len(k)) + 16
	sh.mu.Unlock()
	return k, true
}

func (s *shardedMapSet) MarkClosed(h uint64, key string) {
	sh := &s.shards[shardIndex(h)]
	sh.mu.Lock()
	sh.m[key] = true
	sh.mu.Unlock()
}

func (s *shardedMapSet) Closed(h uint64, key []byte) bool {
	sh := &s.shards[shardIndex(h)]
	sh.mu.Lock()
	closed := sh.m[string(key)]
	sh.mu.Unlock()
	return closed
}

func (s *shardedMapSet) MemBytes() int64 {
	var total int64
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.bytes
		sh.mu.Unlock()
	}
	return total
}

// shardedBitSet is SPIN's bit-state hashing (§5.1) made safe for
// concurrent workers: each state sets two hash-derived bits, and a state
// is "visited" when both are already set. False positives (missed states)
// are possible — the search is partial but uses constant memory.
//
// The two bit positions of one key can land in words "belonging" to
// different shards, so the words themselves are only ever touched with
// atomic operations; the per-shard mutex — selected by the key's hash
// prefix, like the map shards — serializes concurrent TryAdds of the same
// key so exactly one worker wins a newly seen state.
type shardedBitSet struct {
	words []uint64
	mask  uint64
	locks [numShards]sync.Mutex
}

func newShardedBitSet(log2bits uint) *shardedBitSet {
	if log2bits < 6 {
		log2bits = 6 // at least one word
	}
	n := uint64(1) << log2bits
	return &shardedBitSet{words: make([]uint64, n/64), mask: n - 1}
}

func (s *shardedBitSet) TryAdd(h uint64, _ []byte) (string, bool) {
	a, b := bitPositions(h, s.mask)
	l := &s.locks[shardIndex(h)]
	l.Lock()
	hadA := s.setBit(a)
	hadB := s.setBit(b)
	l.Unlock()
	return "", !(hadA && hadB)
}

// setBit atomically sets bit pos and reports whether it was already set.
func (s *shardedBitSet) setBit(pos uint64) bool {
	w := &s.words[pos/64]
	bit := uint64(1) << (pos % 64)
	for {
		old := atomic.LoadUint64(w)
		if old&bit != 0 {
			return true
		}
		if atomic.CompareAndSwapUint64(w, old, old|bit) {
			return false
		}
	}
}

// MarkClosed is a no-op: bit-state hashing stores no per-key flag.
func (s *shardedBitSet) MarkClosed(uint64, string) {}

// Closed answers true conservatively (see the interface comment): the
// reduction's proviso then accepts only brand-new successors as
// deferral witnesses.
func (s *shardedBitSet) Closed(uint64, []byte) bool { return true }

func (s *shardedBitSet) MemBytes() int64 { return int64(len(s.words) * 8) }
