package mc

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
)

// Visited-state structures for the frontier search. Both implementations
// are sharded: a shard is selected by the top bits of a state's hash (a
// hash prefix), and each shard has its own mutex, so the visited set is
// not the serialization point when many workers discover states at once.
// The collapse store hashes a state's vector of segment IDs; the bit
// array hashes the full key.

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

// visitedSet is the visited-state structure shared by the search workers.
// TryAdd atomically tests and records a state, returning true only the
// first time the state is seen: the check and the insert must be one
// operation, or two workers reaching the same state simultaneously would
// both count and expand it. A state is given by its vm.SaveKey key and
// the key's segment ends (vm.SavedState.KeySegments); TryAdd returns the
// state's handle whether or not it was new.
//
// Parent loads the segments of the state a worker is about to expand
// into the worker's keyScratch; TryAdd then compares each successor's
// segments with the parent's before interning anything.
//
// MarkClosed/Closed support the partial-order reduction's cycle proviso
// (see expand): a state is "closed" once a worker has started expanding
// it. An ample set may defer transitions as long as one of its successor
// states is not closed yet — that successor's own (strictly later)
// expansion keeps the deferred transitions reachable. Implementations
// without per-state storage answer Closed conservatively with true, which
// degrades the proviso to "some successor is brand new" — less
// reduction, still sound.
type visitedSet interface {
	Parent(sc *keyScratch, ref stateRef)
	TryAdd(sc *keyScratch, key []byte, ends []int32) (stateRef, bool)
	MarkClosed(ref stateRef)
	Closed(ref stateRef) bool
	MemBytes() int64
}

// stateRef is a handle to a state in the collapse store: the shard in
// the high 32 bits, the state's index within the shard below. Each shard
// numbers its states densely from 0 in admission order.
type stateRef uint64

func newStateRef(shard, idx int) stateRef { return stateRef(uint64(shard)<<32 | uint64(idx)) }

func (r stateRef) shard() int { return int(r >> 32) }
func (r stateRef) index() int { return int(uint32(r)) }

// collapseSet is the exact (Exhaustive-mode) visited set, after SPIN's
// collapse compression: no full key is stored anywhere. Each key segment
// — the live-object count, then one per process — is interned once in
// its slot's segTable, which maps its bytes to a dense ID, and a state
// is stored as its vector of segment IDs. The segments concatenate to
// the canonical key and their boundaries are a function of its bytes,
// so two states have equal vectors exactly when they have equal keys:
// the compression is lossless.
//
// Per-process states repeat across global states (the vmmc firmware
// model's 16550 states hold 427 distinct segments), so a stored state
// costs little more than its vector. Most transitions change one or two
// processes: TryAdd reuses the parent's ID for every segment whose bytes
// are unchanged and interns only the rest, under one lock. The vector is
// then hashed and looked up in one of numShards shards; admission copies
// only the vector.
type collapseSet struct {
	segMu  sync.Mutex
	segs   []segTable // one per key segment (slot)
	shards [numShards]stateShard
}

func newCollapseSet(nseg int) *collapseSet {
	return &collapseSet{segs: make([]segTable, nseg)}
}

// keyScratch is a search worker's private scratch for TryAdd: the
// segments of the state it is expanding, and the vector under
// construction. A zero keyScratch has no parent, so every segment is
// interned.
type keyScratch struct {
	ids  []uint32 // the parent's ID vector
	key  []byte   // the parent's segments, back to back
	ends []int32  // segment ends in key
	vec  []uint32 // the successor's vector
	hash []uint64 // the successor's changed segments' hashes
}

// noSeg marks a vector slot still to be interned.
const noSeg = ^uint32(0)

func (c *collapseSet) Parent(sc *keyScratch, ref stateRef) {
	sh := &c.shards[ref.shard()]
	sh.mu.Lock()
	sc.ids = append(sc.ids[:0], sh.vec(ref.index(), len(c.segs))...)
	sh.mu.Unlock()
	sc.key, sc.ends = sc.key[:0], sc.ends[:0]
	c.segMu.Lock()
	for slot, id := range sc.ids {
		sc.key = append(sc.key, c.segs[slot].bytes(id)...)
		sc.ends = append(sc.ends, int32(len(sc.key)))
	}
	c.segMu.Unlock()
}

func (c *collapseSet) TryAdd(sc *keyScratch, key []byte, ends []int32) (stateRef, bool) {
	n := len(c.segs)
	if len(ends) != n {
		panic("mc: key segment count does not match the program's processes")
	}
	sc.vec = slices.Grow(sc.vec[:0], n)[:n]
	sc.hash = slices.Grow(sc.hash[:0], n)[:n]
	parent := len(sc.ids) == n
	changed := false
	var start, pstart int32
	for slot, end := range ends {
		seg := key[start:end]
		if parent {
			pend := sc.ends[slot]
			if bytes.Equal(seg, sc.key[pstart:pend]) {
				sc.vec[slot] = sc.ids[slot]
				start, pstart = end, pend
				continue
			}
			pstart = pend
		}
		sc.vec[slot] = noSeg
		sc.hash[slot] = hashKey(seg)
		changed = true
		start = end
	}
	if changed {
		start = 0
		c.segMu.Lock()
		for slot, end := range ends {
			if sc.vec[slot] == noSeg {
				sc.vec[slot] = c.segs[slot].intern(key[start:end], sc.hash[slot])
			}
			start = end
		}
		c.segMu.Unlock()
	}
	h := hashIDs(sc.vec)
	si := shardIndex(h)
	sh := &c.shards[si]
	sh.mu.Lock()
	idx, added := sh.insert(sc.vec, uint32(h))
	sh.mu.Unlock()
	return newStateRef(si, idx), added
}

func (c *collapseSet) MarkClosed(ref stateRef) {
	sh := &c.shards[ref.shard()]
	i := ref.index()
	sh.mu.Lock()
	sh.closed[i/64] |= 1 << (i % 64)
	sh.mu.Unlock()
}

func (c *collapseSet) Closed(ref stateRef) bool {
	sh := &c.shards[ref.shard()]
	i := ref.index()
	sh.mu.Lock()
	closed := sh.closed[i/64]&(1<<(i%64)) != 0
	sh.mu.Unlock()
	return closed
}

// MemBytes is what the store has allocated: segment arenas and tables,
// vector arenas, state tables, and closed flags.
func (c *collapseSet) MemBytes() int64 {
	var total int64
	c.segMu.Lock()
	for i := range c.segs {
		total += c.segs[i].memBytes()
	}
	c.segMu.Unlock()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for _, chunk := range sh.chunks {
			total += int64(cap(chunk) * 4)
		}
		total += int64(cap(sh.chunks)*24 + cap(sh.slots)*8 + cap(sh.closed)*8)
		sh.mu.Unlock()
	}
	return total
}

// hashIDs hashes an ID vector two IDs per round, with hashKey's round
// and finalizer.
func hashIDs(v []uint32) uint64 {
	h := hashSeed + uint64(len(v))*hashP1
	for ; len(v) >= 2; v = v[2:] {
		h = bits.RotateLeft64(h+(uint64(v[0])|uint64(v[1])<<32)*hashP2, 31) * hashP1
	}
	if len(v) > 0 {
		h = bits.RotateLeft64(h+uint64(v[0])*hashP2, 31) * hashP1
	}
	return mix64(h)
}

// Both open-addressing tables below hold uint64 slots: the low 32 bits
// of the entry's hash (which also pick its home slot) above its index+1,
// so 0 is an empty slot. They probe linearly and double once three
// quarters full.

// rehash returns slots doubled (or at least 16), with every entry moved
// to its new probe position.
func rehash(slots []uint64) []uint64 {
	grown := make([]uint64, max(16, 2*len(slots)))
	mask := uint32(len(grown) - 1)
	for _, e := range slots {
		if e == 0 {
			continue
		}
		i := uint32(e>>32) & mask
		for grown[i] != 0 {
			i = (i + 1) & mask
		}
		grown[i] = e
	}
	return grown
}

// segTable interns one slot's segments. The bytes live back to back in a
// pointer-free arena; segment id spans arena[ends[id-1]:ends[id]].
type segTable struct {
	arena []byte
	ends  []uint32
	slots []uint64
}

func (t *segTable) bytes(id uint32) []byte {
	var start uint32
	if id > 0 {
		start = t.ends[id-1]
	}
	return t.arena[start:t.ends[id]]
}

// intern returns seg's ID, assigning the next one if seg is new.
func (t *segTable) intern(seg []byte, h uint64) uint32 {
	if 4*(len(t.ends)+1) > 3*len(t.slots) {
		t.slots = rehash(t.slots)
	}
	tag := uint32(h)
	mask := uint32(len(t.slots) - 1)
	i := tag & mask
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if e := t.slots[i]; uint32(e>>32) == tag && bytes.Equal(t.bytes(uint32(e)-1), seg) {
			return uint32(e) - 1
		}
	}
	id := uint32(len(t.ends))
	t.arena = append(t.arena, seg...)
	t.ends = append(t.ends, uint32(len(t.arena)))
	t.slots[i] = uint64(tag)<<32 | uint64(id+1)
	return id
}

func (t *segTable) memBytes() int64 {
	return int64(cap(t.arena) + cap(t.ends)*4 + cap(t.slots)*8)
}

// stateShard holds the states whose vector hash selects it: their
// vectors back to back in pointer-free chunks of chunkStates vectors, an
// open-addressing table over them, and one closed bit per state. Chunks
// never move, so a growing shard copies no vectors; only the first
// grows by append, so a small shard stays small.
type stateShard struct {
	mu     sync.Mutex
	chunks [][]uint32
	slots  []uint64
	closed []uint64
	n      int // states
}

// chunkStates is the number of vectors per chunk: small enough that a
// shard's unused tail stays a few bytes per state on small searches.
const chunkStates = 16

// vec returns state idx's vector of width w.
func (sh *stateShard) vec(idx, w int) []uint32 {
	i := idx % chunkStates * w
	return sh.chunks[idx/chunkStates][i : i+w]
}

// insert returns vec's index in the shard and whether it was new,
// copying vec into the arena if so.
func (sh *stateShard) insert(vec []uint32, tag uint32) (int, bool) {
	if 4*(sh.n+1) > 3*len(sh.slots) {
		sh.slots = rehash(sh.slots)
	}
	w := len(vec)
	mask := uint32(len(sh.slots) - 1)
	i := tag & mask
	for ; sh.slots[i] != 0; i = (i + 1) & mask {
		if e := sh.slots[i]; uint32(e>>32) == tag {
			idx := int(uint32(e)) - 1
			if slices.Equal(sh.vec(idx, w), vec) {
				return idx, false
			}
		}
	}
	idx := sh.n
	sh.n++
	if idx%chunkStates == 0 {
		var chunk []uint32
		if idx > 0 {
			chunk = make([]uint32, 0, chunkStates*w)
		}
		sh.chunks = append(sh.chunks, chunk)
	}
	last := len(sh.chunks) - 1
	sh.chunks[last] = append(sh.chunks[last], vec...)
	if idx%64 == 0 {
		sh.closed = append(sh.closed, 0)
	}
	sh.slots[i] = uint64(tag)<<32 | uint64(idx+1)
	return idx, true
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

// Parent is a no-op: the bit array compares no segments.
func (s *shardedBitSet) Parent(*keyScratch, stateRef) {}

// TryAdd sets the key's two bits; the handle is always 0.
func (s *shardedBitSet) TryAdd(_ *keyScratch, key []byte, _ []int32) (stateRef, bool) {
	h := hashKey(key)
	a, b := bitPositions(h, s.mask)
	l := &s.locks[shardIndex(h)]
	l.Lock()
	hadA := s.setBit(a)
	hadB := s.setBit(b)
	l.Unlock()
	return 0, !(hadA && hadB)
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

// MarkClosed is a no-op: bit-state hashing stores no per-state flag.
func (s *shardedBitSet) MarkClosed(stateRef) {}

// Closed answers true conservatively (see the interface comment): the
// reduction's proviso then accepts only brand-new successors as
// deferral witnesses.
func (s *shardedBitSet) Closed(stateRef) bool { return true }

func (s *shardedBitSet) MemBytes() int64 { return int64(len(s.words) * 8) }
