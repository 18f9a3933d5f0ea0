// Package abtree implements the remaining Fig. 3 baselines: an
// OCC-ABTree-style persistent (a,b)-tree (Srivastava & Brown, PPoPP'22)
// and its Elim-ABTree variant with publishing elimination.
//
// Both trees are fully persistent: the leaf directory and the leaves all
// live in NVM (no DRAM index — the design point that costs them against
// PHTM-vEB and LB+Tree in the paper's Fig. 3). Concurrency control is
// optimistic: each leaf carries a version seqlock; readers retry if the
// version moved, writers hold the odd version while they update and
// persist entries. Structural changes (splits) additionally take the
// directory lock.
//
// Elim-ABTree adds publishing elimination: when a writer finds a leaf
// locked, it publishes its operation in the leaf's (transient) publication
// array; the lock holder drains published operations in a batch, combining
// them by key so that an insert and a remove of the same key cancel
// without touching NVM at all — the mechanism behind its advantage on
// skewed workloads.
package abtree

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"bdhtm/internal/nvm"
)

const (
	// LeafEntries is the number of KV slots per leaf.
	LeafEntries = 14

	leafVersionOff = 0 // seqlock: odd while locked; transient, reset at recovery
	leafBitmapOff  = 1
	leafNextOff    = 2
	leafEntryOff   = 3 // LeafEntries * (key+1, value)
	leafWords      = leafEntryOff + 2*LeafEntries

	rootFirstLeaf nvm.Addr = nvm.RootWords + 0
	rootBump      nvm.Addr = nvm.RootWords + 1
	rootMagicA    nvm.Addr = nvm.RootWords + 2
	heapBase      nvm.Addr = nvm.RootWords + 8

	magic = 0xab73ee01

	pubSlots = 8
)

// Publication slot states.
const (
	pubEmpty uint32 = iota
	pubWriting
	pubPending
	pubTaken
	pubDone
)

type pubOp struct {
	state  atomic.Uint32
	isIns  bool
	key    uint64
	value  uint64
	result bool // replaced / removed
	full   bool // leaf had no room; publisher must split and retry
}

type pubArray struct {
	slots [pubSlots]pubOp
}

// Tree is an OCC- or Elim-ABTree. It owns its heap.
type Tree struct {
	heap *nvm.Heap
	elim bool

	dirMu sync.RWMutex
	dir   []dirEntry // sorted leaf directory, mirrored durably in NVM

	dirRegion nvm.Addr // durable copy: count word + (minKey, leaf) pairs
	dirCap    int

	pubs []pubArray // per-leaf publication arrays (transient)

	bump  nvm.Addr
	count atomic.Int64

	eliminated atomic.Int64 // ops cancelled without NVM writes
	combined   atomic.Int64 // ops applied by another thread's drain

}

type dirEntry struct {
	minKey uint64
	leaf   nvm.Addr
}

// New formats a tree. elim selects the Elim-ABTree variant.
func New(h *nvm.Heap, elim bool) *Tree {
	t := &Tree{heap: h, elim: elim}
	t.dirCap = 1 << 15
	t.dirRegion = heapBase
	t.bump = heapBase + nvm.Addr(1+2*t.dirCap)
	t.pubs = make([]pubArray, h.Words()/leafWords+1)
	first := t.allocLeaf()
	h.Store(rootFirstLeaf, uint64(first))
	h.Store(rootBump, uint64(t.bump))
	h.Store(rootMagicA, magic)
	h.FlushRange(rootFirstLeaf, 3)
	h.Fence()
	t.dir = []dirEntry{{minKey: 0, leaf: first}}
	t.persistDir()
	return t
}

// Elim reports whether publishing elimination is enabled.
func (t *Tree) Elim() bool { return t.elim }

// Len returns the number of keys.
func (t *Tree) Len() int { return int(t.count.Load()) }

// NVMBytes returns the NVM consumed by the directory region and leaves
// (Table 3; the tree keeps no DRAM index).
func (t *Tree) NVMBytes() int64 { return int64(t.bump-heapBase) * nvm.WordBytes }

// EliminationStats returns (eliminated, combined) operation counts.
func (t *Tree) EliminationStats() (int64, int64) {
	return t.eliminated.Load(), t.combined.Load()
}

func (t *Tree) allocLeaf() nvm.Addr {
	a := t.bump
	t.bump += leafWords
	if int(t.bump) > t.heap.Words() {
		panic("abtree: out of NVM")
	}
	for i := nvm.Addr(0); i < leafWords; i++ {
		t.heap.Store(a+i, 0)
	}
	t.heap.FlushRange(a, leafWords)
	t.heap.Store(rootBump, uint64(t.bump))
	t.heap.Persist(rootBump)
	return a
}

// persistDir writes the directory mirror to NVM. Caller holds dirMu.
func (t *Tree) persistDir() {
	if len(t.dir) > t.dirCap {
		panic("abtree: directory overflow")
	}
	t.heap.Store(t.dirRegion, uint64(len(t.dir)))
	for i, e := range t.dir {
		t.heap.Store(t.dirRegion+nvm.Addr(1+2*i), e.minKey)
		t.heap.Store(t.dirRegion+nvm.Addr(2+2*i), uint64(e.leaf))
	}
	t.heap.FlushRange(t.dirRegion, 1+2*len(t.dir))
	t.heap.Fence()
}

// findLeaf performs the "no DRAM index" lookup: a binary search over the
// directory's NVM words (charging NVM access costs), under dirMu.RLock.
func (t *Tree) findLeaf(k uint64) nvm.Addr {
	n := int(t.heap.Load(t.dirRegion))
	lo, hi := 0, n // invariant: dir[lo-1].minKey <= k < dir[hi].minKey
	for lo < hi {
		mid := (lo + hi) / 2
		if t.heap.Load(t.dirRegion+nvm.Addr(1+2*mid)) > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return nvm.Addr(t.heap.Load(t.dirRegion + nvm.Addr(2*lo)))
}

func entryAddr(leaf nvm.Addr, s int) nvm.Addr { return leaf + leafEntryOff + nvm.Addr(2*s) }

func (t *Tree) leafIdx(leaf nvm.Addr) int { return int((leaf - heapBase) / leafWords) }

// lockLeaf acquires the leaf's seqlock (even -> odd).
func (t *Tree) lockLeaf(leaf nvm.Addr) bool {
	v := t.heap.Load(leaf + leafVersionOff)
	return v%2 == 0 && t.heap.CompareAndSwap(leaf+leafVersionOff, v, v+1)
}

func (t *Tree) unlockLeaf(leaf nvm.Addr) {
	t.heap.Store(leaf+leafVersionOff, t.heap.Load(leaf+leafVersionOff)+1)
}

// Get returns the value stored under k, with an optimistic seqlock read.
func (t *Tree) Get(k uint64) (uint64, bool) {
	for {
		t.dirMu.RLock()
		leaf := t.findLeaf(k)
		t.dirMu.RUnlock()
		v1 := t.heap.Load(leaf + leafVersionOff)
		if v1%2 == 1 {
			runtime.Gosched()
			continue
		}
		var val uint64
		found := false
		bm := t.heap.Load(leaf + leafBitmapOff)
		for s := 0; s < LeafEntries; s++ {
			if bm&(1<<s) == 0 {
				continue
			}
			a := entryAddr(leaf, s)
			if t.heap.Load(a) == k+1 {
				val, found = t.heap.Load(a+1), true
				break
			}
		}
		if t.heap.Load(leaf+leafVersionOff) == v1 {
			return val, found
		}
	}
}

// Insert adds or updates k, reporting whether an existing value was
// replaced.
func (t *Tree) Insert(k, v uint64) bool {
	return t.update(k, v, true)
}

// Remove deletes k, reporting whether it was present.
func (t *Tree) Remove(k uint64) bool {
	return t.update(k, 0, false)
}

func (t *Tree) update(k, v uint64, isIns bool) bool {
	for {
		t.dirMu.RLock()
		leaf := t.findLeaf(k)
		if t.lockLeaf(leaf) {
			// Revalidate under the lock.
			if t.findLeaf(k) != leaf {
				t.unlockLeaf(leaf)
				t.dirMu.RUnlock()
				continue
			}
			res, full := t.applyLocked(leaf, k, v, isIns)
			if t.elim {
				t.drainPubs(leaf)
			}
			t.unlockLeaf(leaf)
			t.dirMu.RUnlock()
			if full {
				t.split(k)
				continue
			}
			return res
		}
		// Leaf is locked by another writer.
		if t.elim {
			if res, ok := t.publish(leaf, k, v, isIns); ok {
				t.dirMu.RUnlock()
				if res == pubResFull {
					t.split(k)
					continue
				}
				return res == pubResTrue
			}
		}
		t.dirMu.RUnlock()
		runtime.Gosched()
	}
}

// applyLocked performs one operation on a locked leaf. full=true means an
// insert found no free slot (caller splits and retries).
func (t *Tree) applyLocked(leaf nvm.Addr, k, v uint64, isIns bool) (res, full bool) {
	bm := t.heap.Load(leaf + leafBitmapOff)
	free := -1
	for s := 0; s < LeafEntries; s++ {
		if bm&(1<<s) == 0 {
			if free < 0 {
				free = s
			}
			continue
		}
		a := entryAddr(leaf, s)
		if t.heap.Load(a) != k+1 {
			continue
		}
		if isIns {
			t.heap.Store(a+1, v)
			t.heap.Persist(a + 1)
			return true, false
		}
		t.heap.Store(leaf+leafBitmapOff, bm&^(1<<s))
		t.heap.Persist(leaf + leafBitmapOff)
		t.count.Add(-1)
		return true, false
	}
	if !isIns {
		return false, false
	}
	if free < 0 {
		return false, true
	}
	a := entryAddr(leaf, free)
	t.heap.Store(a, k+1)
	t.heap.Store(a+1, v)
	t.heap.FlushRange(a, 2)
	t.heap.Fence()
	t.heap.Store(leaf+leafBitmapOff, bm|1<<free)
	t.heap.Persist(leaf + leafBitmapOff)
	t.count.Add(1)
	return false, false
}

type pubResult int

const (
	pubResFalse pubResult = iota
	pubResTrue
	pubResFull
)

// publish hands the operation to the current lock holder. It returns
// ok=false if no publication slot was free or the holder released the
// lock before taking the operation (caller retries).
func (t *Tree) publish(leaf nvm.Addr, k, v uint64, isIns bool) (pubResult, bool) {
	pa := &t.pubs[t.leafIdx(leaf)]
	var slot *pubOp
	for i := range pa.slots {
		s := &pa.slots[i]
		if s.state.Load() == pubEmpty && s.state.CompareAndSwap(pubEmpty, pubWriting) {
			slot = s
			break
		}
	}
	if slot == nil {
		return 0, false
	}
	slot.isIns = isIns
	slot.key = k
	slot.value = v
	slot.state.Store(pubPending)
	for {
		switch slot.state.Load() {
		case pubDone:
			res := pubResFalse
			if slot.full {
				res = pubResFull
			} else if slot.result {
				res = pubResTrue
			}
			slot.state.Store(pubEmpty)
			return res, true
		case pubPending:
			// If the lock holder left without draining us, reclaim the
			// slot and retry as a locker.
			if t.heap.Load(leaf+leafVersionOff)%2 == 0 {
				if slot.state.CompareAndSwap(pubPending, pubEmpty) {
					return 0, false
				}
			}
			runtime.Gosched()
		default:
			runtime.Gosched()
		}
	}
}

// drainPubs applies all published operations on a locked leaf, combining
// them by key: within the batch, an insert followed by a remove of the
// same key (or vice versa) cancels, so only each key's net effect reaches
// NVM. Caller holds the leaf lock.
func (t *Tree) drainPubs(leaf nvm.Addr) {
	pa := &t.pubs[t.leafIdx(leaf)]
	var taken []*pubOp
	for i := range pa.slots {
		s := &pa.slots[i]
		if s.state.Load() == pubPending && s.state.CompareAndSwap(pubPending, pubTaken) {
			taken = append(taken, s)
		}
	}
	if len(taken) == 0 {
		return
	}
	// Group by key, preserving arrival order within the batch.
	byKey := make(map[uint64][]*pubOp, len(taken))
	var keys []uint64
	for _, s := range taken {
		if _, seen := byKey[s.key]; !seen {
			keys = append(keys, s.key)
		}
		byKey[s.key] = append(byKey[s.key], s)
	}
	for _, k := range keys {
		ops := byKey[k]
		// Current state of k in the leaf (no NVM writes yet).
		curVal, present := t.peek(leaf, k)
		_ = curVal
		netPresent, netVal := present, curVal
		for _, s := range ops {
			if s.isIns {
				s.result = netPresent
				netPresent, netVal = true, s.value
			} else {
				s.result = netPresent
				netPresent = false
			}
			s.full = false
		}
		// Apply the net effect once.
		switch {
		case netPresent:
			res, full := t.applyLocked(leaf, k, netVal, true)
			_ = res
			if full {
				// No room: fail the op(s) that needed the slot back to
				// their publishers for a split-and-retry.
				for _, s := range ops {
					if s.isIns {
						s.full = true
					}
				}
			}
			if !present {
				// count adjustment handled inside applyLocked
				_ = present
			}
			if present != netPresent && len(ops) > 1 {
				t.eliminated.Add(int64(len(ops) - 1))
			}
		case present: // net removal
			t.applyLocked(leaf, k, 0, false)
			if len(ops) > 1 {
				t.eliminated.Add(int64(len(ops) - 1))
			}
		default: // never present, insert+remove cancelled entirely
			t.eliminated.Add(int64(len(ops)))
		}
		t.combined.Add(int64(len(ops)))
		for _, s := range ops {
			s.state.Store(pubDone)
		}
	}
}

// peek reads k's value on a locked leaf without NVM-state changes.
func (t *Tree) peek(leaf nvm.Addr, k uint64) (uint64, bool) {
	bm := t.heap.Load(leaf + leafBitmapOff)
	for s := 0; s < LeafEntries; s++ {
		if bm&(1<<s) == 0 {
			continue
		}
		a := entryAddr(leaf, s)
		if t.heap.Load(a) == k+1 {
			return t.heap.Load(a + 1), true
		}
	}
	return 0, false
}

// split divides the leaf covering k (same failure-atomic protocol as the
// LB+Tree baseline: new leaf persisted, chain link committed, old bitmap
// trimmed, directory mirror re-persisted).
func (t *Tree) split(k uint64) {
	t.dirMu.Lock()
	defer t.dirMu.Unlock()
	di := sort.Search(len(t.dir), func(i int) bool { return t.dir[i].minKey > k }) - 1
	leaf := t.dir[di].leaf
	for !t.lockLeaf(leaf) {
		runtime.Gosched()
	}
	defer t.unlockLeaf(leaf)

	bm := t.heap.Load(leaf + leafBitmapOff)
	if bm != (1<<LeafEntries)-1 {
		return
	}
	type kv struct {
		slot int
		key  uint64
	}
	var es []kv
	for s := 0; s < LeafEntries; s++ {
		es = append(es, kv{slot: s, key: t.heap.Load(entryAddr(leaf, s)) - 1})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	mid := len(es) / 2
	splitKey := es[mid].key

	right := t.allocLeaf()
	var rightBM uint64
	for i, e := range es[mid:] {
		a := entryAddr(right, i)
		t.heap.Store(a, e.key+1)
		t.heap.Store(a+1, t.heap.Load(entryAddr(leaf, e.slot)+1))
		rightBM |= 1 << i
	}
	t.heap.Store(right+leafNextOff, t.heap.Load(leaf+leafNextOff))
	t.heap.Store(right+leafBitmapOff, rightBM)
	t.heap.FlushRange(right, leafWords)
	t.heap.Fence()

	t.heap.Store(leaf+leafNextOff, uint64(right))
	t.heap.Persist(leaf + leafNextOff)

	var leftBM uint64
	for _, e := range es[:mid] {
		leftBM |= 1 << e.slot
	}
	t.heap.Store(leaf+leafBitmapOff, leftBM)
	t.heap.Persist(leaf + leafBitmapOff)

	nd := make([]dirEntry, 0, len(t.dir)+1)
	nd = append(nd, t.dir[:di+1]...)
	nd = append(nd, dirEntry{minKey: splitKey, leaf: right})
	nd = append(nd, t.dir[di+1:]...)
	t.dir = nd
	t.persistDir()
}

// Recover reopens a tree after heap.Crash: leaf versions are reset, the
// directory is rebuilt from the leaf chain (resolving any interrupted
// split's duplicate window by the key-range invariant) and re-persisted.
func Recover(h *nvm.Heap, elim bool) *Tree {
	if h.Load(rootMagicA) != magic {
		panic("abtree: heap not formatted")
	}
	t := &Tree{heap: h, elim: elim}
	t.dirCap = 1 << 15
	t.dirRegion = heapBase
	t.bump = nvm.Addr(h.Load(rootBump))
	t.pubs = make([]pubArray, h.Words()/leafWords+1)
	leaf := nvm.Addr(h.Load(rootFirstLeaf))
	var count int64
	for !leaf.IsNil() {
		h.Store(leaf+leafVersionOff, 0) // reset transient seqlock
		next := nvm.Addr(h.Load(leaf + leafNextOff))
		bound := ^uint64(0)
		if !next.IsNil() {
			nbm := h.Load(next + leafBitmapOff)
			for s := 0; s < LeafEntries; s++ {
				if nbm&(1<<s) != 0 {
					if k := h.Load(entryAddr(next, s)) - 1; k < bound {
						bound = k
					}
				}
			}
		}
		bm := h.Load(leaf + leafBitmapOff)
		fixed := bm
		min := ^uint64(0)
		for s := 0; s < LeafEntries; s++ {
			if bm&(1<<s) == 0 {
				continue
			}
			k := h.Load(entryAddr(leaf, s)) - 1
			if k >= bound {
				fixed &^= 1 << s
				continue
			}
			if k < min {
				min = k
			}
			count++
		}
		if fixed != bm {
			h.Store(leaf+leafBitmapOff, fixed)
			h.Persist(leaf + leafBitmapOff)
		}
		switch {
		case len(t.dir) == 0:
			t.dir = append(t.dir, dirEntry{minKey: 0, leaf: leaf})
		case min != ^uint64(0):
			t.dir = append(t.dir, dirEntry{minKey: min, leaf: leaf})
		}
		leaf = next
	}
	t.count.Store(count)
	t.persistDir()
	return t
}
