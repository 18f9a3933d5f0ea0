// Package plush implements a Plush-style write-optimized persistent hash
// table (Vogel et al., VLDB'22), the second hash baseline in the paper's
// Fig. 6. Plush is log-structured and layered, like a flattened LSM tree:
//
//   - level 0 lives in DRAM: small per-bucket buffers absorbing writes;
//   - deeper levels live in NVM, each a fanout multiple of the previous;
//   - when a bucket fills, its entries are re-hashed and appended to
//     buckets of the next level (migration), cascading as needed; the
//     deepest level compacts in place (newest entry per key wins,
//     tombstones drop);
//   - crucially for the paper's comparison, every mutation appends a log
//     entry to an NVM write-ahead log and persists it before returning —
//     logging on the critical path is what makes Plush strictly durable
//     and what the paper blames for its contention under skew (Fig. 6c).
//
// Lookups probe level 0 first, then each deeper level, scanning buckets
// newest-entry-first. Probing filters are omitted (DESIGN.md).
package plush

import (
	"sync"
	"sync/atomic"

	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

const (
	l0Buckets  = 64
	l0Capacity = 32 // entries per level-0 bucket
	fanout     = 4
	nvmLevels  = 3
	entryWords = 2 // key+1 (0 = empty), value; tombstone = key|tomb

	tombstone = uint64(1) << 62

	// Heap layout.
	rootMagicA nvm.Addr = nvm.RootWords + 0
	rootWalPos nvm.Addr = nvm.RootWords + 1
	heapBase   nvm.Addr = nvm.RootWords + 8

	magic = 0x9A5801

	walWords = 1 << 16 // ring of (key,value) log entries
)

// level geometry: level i has l0Buckets * fanout^(i+1) buckets, each with
// capacity growing with depth.
func levelBuckets(i int) int {
	n := l0Buckets
	for j := 0; j <= i; j++ {
		n *= fanout
	}
	return n
}

func levelCapacity(i int) int {
	if i == nvmLevels-1 {
		return 128 // deepest level: large, compacted in place
	}
	return 64
}

type l0bucket struct {
	mu     sync.Mutex
	keys   [l0Capacity]uint64 // key+1; 0 empty; tombstone bit marks delete
	values [l0Capacity]uint64
	n      int
}

// Table is a Plush-style hash table. It owns its heap.
type Table struct {
	heap *nvm.Heap

	l0     [l0Buckets]l0bucket
	levels [nvmLevels]levelMeta

	walMu  sync.Mutex
	walPos uint64

	// migMu guards the NVM levels: migrations and compactions take the
	// write side, probes the read side.
	migMu sync.RWMutex

	count atomic.Int64

	obs *obs.Recorder
}

// SetObs attaches a telemetry recorder: every Get/Insert/Remove (and
// their blind variants) records its latency on it. Attach before the
// table is shared between goroutines; nil disables recording.
func (t *Table) SetObs(r *obs.Recorder) { t.obs = r }

type levelMeta struct {
	base    nvm.Addr
	buckets int
	cap     int
	fill    []atomic.Int64 // entries appended per bucket (DRAM; rebuilt on recovery)
}

func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ k>>33
}

func newTable(h *nvm.Heap) *Table {
	t := &Table{heap: h}
	next := heapBase + walWords // WAL ring first
	for i := 0; i < nvmLevels; i++ {
		b := levelBuckets(i)
		c := levelCapacity(i)
		t.levels[i] = levelMeta{base: next, buckets: b, cap: c, fill: make([]atomic.Int64, b)}
		words := b * c * entryWords
		next += nvm.Addr(words)
		if int(next) > h.Words() {
			panic("plush: heap too small for level geometry")
		}
	}
	return t
}

// New formats a table on the heap.
func New(h *nvm.Heap) *Table {
	t := newTable(h)
	h.Store(rootMagicA, magic)
	h.Store(rootWalPos, 0)
	h.FlushRange(rootMagicA, 2)
	h.Fence()
	return t
}

// Len returns the number of live keys.
func (t *Table) Len() int { return int(t.count.Load()) }

// logWrite appends one entry to the WAL and persists it before returning
// — the critical-path logging the paper measures.
func (t *Table) logWrite(k, v uint64) {
	t.walMu.Lock()
	pos := t.walPos % (walWords / entryWords)
	a := heapBase + nvm.Addr(pos*entryWords)
	t.heap.Store(a, k)
	t.heap.Store(a+1, v)
	t.heap.Flush(a)
	t.walPos++
	t.heap.Store(rootWalPos, t.walPos)
	t.heap.Flush(rootWalPos)
	t.heap.Fence()
	t.walMu.Unlock()
}

func (t *Table) bucketFor(k uint64) *l0bucket {
	return &t.l0[hash64(k)%l0Buckets]
}

// Insert adds or updates k, reporting whether k existed. The existence
// probe serves only the return value and the live count; benchmarks use
// PutBlind, which matches Plush's native blind-write fast path.
func (t *Table) Insert(k, v uint64) bool {
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpInsert, k, t.obs.Now())
	}
	_, existed := t.get(k)
	t.putBlind(k, v)
	if !existed {
		t.count.Add(1)
	}
	return existed
}

// PutBlind writes k=v without probing for prior existence: one persisted
// log append plus a level-0 buffer write. The live-key count is not
// maintained on this path.
func (t *Table) PutBlind(k, v uint64) {
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpInsert, k, t.obs.Now())
	}
	t.putBlind(k, v)
}

func (t *Table) putBlind(k, v uint64) {
	t.logWrite(k+1, v)
	t.put(k+1, v)
}

// Remove deletes k by writing a tombstone, reporting whether it existed.
func (t *Table) Remove(k uint64) bool {
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpRemove, k, t.obs.Now())
	}
	_, existed := t.get(k)
	if !existed {
		return false
	}
	t.removeBlind(k)
	t.count.Add(-1)
	return true
}

// RemoveBlind writes a tombstone without probing (benchmark fast path).
func (t *Table) RemoveBlind(k uint64) {
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpRemove, k, t.obs.Now())
	}
	t.removeBlind(k)
}

func (t *Table) removeBlind(k uint64) {
	t.logWrite(k+1|tombstone, 0)
	t.put(k+1|tombstone, 0)
}

// put inserts an encoded entry into level 0, migrating on overflow.
func (t *Table) put(kw, v uint64) {
	b := t.bucketFor(kw&^tombstone - 1)
	b.mu.Lock()
	// Overwrite an existing level-0 entry for the same key (newest wins
	// anyway; this keeps buckets from filling with duplicates).
	for i := b.n - 1; i >= 0; i-- {
		if b.keys[i]&^tombstone == kw&^tombstone {
			b.keys[i] = kw
			b.values[i] = v
			b.mu.Unlock()
			return
		}
	}
	if b.n == l0Capacity {
		t.migrateL0(b)
	}
	b.keys[b.n] = kw
	b.values[b.n] = v
	b.n++
	b.mu.Unlock()
}

// migrateL0 pushes a full level-0 bucket into level 1. Caller holds the
// bucket lock.
func (t *Table) migrateL0(b *l0bucket) {
	t.migMu.Lock()
	defer t.migMu.Unlock()
	for i := 0; i < b.n; i++ {
		t.appendToLevel(0, b.keys[i], b.values[i])
	}
	b.n = 0
}

// appendToLevel appends an entry to NVM level li, flushing it, cascading
// to deeper levels (or compacting the deepest) when the target bucket is
// full. Caller holds migMu.
func (t *Table) appendToLevel(li int, kw, v uint64) {
	lv := &t.levels[li]
	bi := int(hash64(kw&^tombstone-1) >> 16 % uint64(lv.buckets))
	if int(lv.fill[bi].Load()) == lv.cap {
		if li == nvmLevels-1 {
			t.compactDeepest(bi)
		} else {
			t.migrateBucket(li, bi)
		}
		if int(lv.fill[bi].Load()) == lv.cap {
			panic("plush: bucket still full after migration; size levels for the workload")
		}
	}
	slot := lv.fill[bi].Load()
	a := lv.base + nvm.Addr((bi*lv.cap+int(slot))*entryWords)
	t.heap.Store(a+1, v)
	t.heap.Store(a, kw)
	t.heap.FlushRange(a, entryWords)
	t.heap.Fence()
	lv.fill[bi].Add(1)
}

// migrateBucket moves every entry of (li, bi) into level li+1, newest
// entries last so that later scans pick the freshest copy.
func (t *Table) migrateBucket(li, bi int) {
	lv := &t.levels[li]
	n := int(lv.fill[bi].Load())
	base := lv.base + nvm.Addr(bi*lv.cap*entryWords)
	for i := 0; i < n; i++ {
		a := base + nvm.Addr(i*entryWords)
		kw := t.heap.Load(a)
		if kw == 0 {
			continue
		}
		t.appendToLevel(li+1, kw, t.heap.Load(a+1))
	}
	// Clear the source bucket durably after the destination persisted.
	for i := 0; i < n; i++ {
		t.heap.Store(base+nvm.Addr(i*entryWords), 0)
	}
	t.heap.FlushRange(base, n*entryWords)
	t.heap.Fence()
	lv.fill[bi].Store(0)
}

// compactDeepest rewrites the deepest level's bucket keeping only the
// newest entry per key and dropping tombstones.
func (t *Table) compactDeepest(bi int) {
	lv := &t.levels[nvmLevels-1]
	n := int(lv.fill[bi].Load())
	base := lv.base + nvm.Addr(bi*lv.cap*entryWords)
	newest := make(map[uint64]uint64, n) // key -> value
	order := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		a := base + nvm.Addr(i*entryWords)
		kw := t.heap.Load(a)
		if kw == 0 {
			continue
		}
		key := kw &^ tombstone
		if _, seen := newest[key]; !seen {
			order = append(order, key)
		}
		if kw&tombstone != 0 {
			newest[key] = tombstone
		} else {
			newest[key] = t.heap.Load(a + 1)
		}
	}
	w := 0
	for _, key := range order {
		v := newest[key]
		if v == tombstone {
			continue
		}
		a := base + nvm.Addr(w*entryWords)
		t.heap.Store(a, key)
		t.heap.Store(a+1, v)
		w++
	}
	for i := w; i < n; i++ {
		t.heap.Store(base+nvm.Addr(i*entryWords), 0)
	}
	t.heap.FlushRange(base, n*entryWords)
	t.heap.Fence()
	lv.fill[bi].Store(int64(w))
}

// Get returns the value stored under k, probing level 0 then each NVM
// level, newest entries first.
func (t *Table) Get(k uint64) (uint64, bool) {
	if t.obs != nil {
		defer t.obs.EndOp(obs.OpLookup, k, t.obs.Now())
	}
	return t.get(k)
}

// get is Get without telemetry, for internal existence probes.
func (t *Table) get(k uint64) (uint64, bool) {
	b := t.bucketFor(k)
	b.mu.Lock()
	for i := b.n - 1; i >= 0; i-- {
		if b.keys[i]&^tombstone == k+1 {
			if b.keys[i]&tombstone != 0 {
				b.mu.Unlock()
				return 0, false
			}
			v := b.values[i]
			b.mu.Unlock()
			return v, true
		}
	}
	b.mu.Unlock()
	t.migMu.RLock()
	defer t.migMu.RUnlock()
	for li := 0; li < nvmLevels; li++ {
		lv := &t.levels[li]
		bi := int(hash64(k) >> 16 % uint64(lv.buckets))
		n := int(lv.fill[bi].Load())
		base := lv.base + nvm.Addr(bi*lv.cap*entryWords)
		for i := n - 1; i >= 0; i-- {
			a := base + nvm.Addr(i*entryWords)
			kw := t.heap.Load(a)
			if kw&^tombstone != k+1 {
				continue
			}
			if kw&tombstone != 0 {
				return 0, false
			}
			return t.heap.Load(a + 1), true
		}
	}
	return 0, false
}

// Recover reopens a table after heap.Crash: NVM levels are scanned to
// rebuild fill counts, and the WAL tail is replayed into level 0 (entries
// already migrated are naturally deduplicated by newest-first probing).
func Recover(h *nvm.Heap) *Table {
	if h.Load(rootMagicA) != magic {
		panic("plush: heap not formatted")
	}
	t := newTable(h)
	t.walPos = h.Load(rootWalPos)
	// Rebuild fill counts from persisted level contents.
	live := make(map[uint64]bool)
	for li := nvmLevels - 1; li >= 0; li-- {
		lv := &t.levels[li]
		for bi := 0; bi < lv.buckets; bi++ {
			base := lv.base + nvm.Addr(bi*lv.cap*entryWords)
			n := 0
			for s := 0; s < lv.cap; s++ {
				if h.Load(base+nvm.Addr(s*entryWords)) != 0 {
					n = s + 1
				}
			}
			lv.fill[bi].Store(int64(n))
		}
	}
	// Replay the whole WAL ring (idempotent: newest write wins).
	walEntries := uint64(walWords / entryWords)
	pos := t.walPos
	start := uint64(0)
	if pos > walEntries {
		start = pos - walEntries
	}
	for i := start; i < pos; i++ {
		a := heapBase + nvm.Addr(i%walEntries*entryWords)
		kw := h.Load(a)
		if kw == 0 {
			continue
		}
		t.put(kw, h.Load(a+1))
	}
	// Recount live keys by probing every key seen anywhere.
	seen := make(map[uint64]bool)
	countKey := func(kw uint64) {
		if kw == 0 {
			return
		}
		key := kw&^tombstone - 1
		if seen[key] {
			return
		}
		seen[key] = true
		if _, ok := t.Get(key); ok {
			live[key] = true
		}
	}
	for li := 0; li < nvmLevels; li++ {
		lv := &t.levels[li]
		for bi := 0; bi < lv.buckets; bi++ {
			base := lv.base + nvm.Addr(bi*lv.cap*entryWords)
			for s := 0; s < int(lv.fill[bi].Load()); s++ {
				countKey(h.Load(base + nvm.Addr(s*entryWords)))
			}
		}
	}
	for bi := range t.l0 {
		b := &t.l0[bi]
		for i := 0; i < b.n; i++ {
			countKey(b.keys[i])
		}
	}
	t.count.Store(int64(len(live)))
	return t
}
