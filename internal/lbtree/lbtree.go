// Package lbtree implements an LB+Tree-style persistent B+ tree (Liu et
// al., VLDB'20), one of the paper's Fig. 3 baselines. The design points
// reproduced here:
//
//   - inner structure in DRAM for fast traversal (modeled as a sorted
//     leaf directory — see DESIGN.md), leaf nodes in NVM;
//   - logless, failure-atomic leaf updates: an insert writes the entry
//     and persists it, then flips the leaf's presence bitmap and persists
//     that one word — the bitmap write is the commit point, giving the
//     paper-quoted ~2 persists per insert;
//   - per-leaf write locks; searches are lock-free (bitmap-gated reads);
//   - after a crash the inner structure is rebuilt by scanning the
//     persistent leaf chain.
package lbtree

import (
	"sort"
	"sync"
	"sync/atomic"

	"bdhtm/internal/nvm"
)

const (
	// LeafEntries is the number of slots per NVM leaf.
	LeafEntries = 14

	leafBitmapOff = 0 // presence bitmap (low 14 bits)
	leafNextOff   = 1 // address of the next leaf in key order
	leafEntryOff  = 2 // LeafEntries * (key+1, value); key word 0 = never written
	leafWords     = leafEntryOff + 2*LeafEntries

	rootFirstLeaf nvm.Addr = nvm.RootWords + 0
	rootBump      nvm.Addr = nvm.RootWords + 1
	rootMagicA    nvm.Addr = nvm.RootWords + 2
	heapBase      nvm.Addr = nvm.RootWords + 8

	magic = 0x1b73ee01
)

// Tree is an LB+Tree-style persistent B+ tree. It owns its heap.
type Tree struct {
	heap *nvm.Heap

	mu  sync.RWMutex // guards dir (reads take RLock; splits take Lock)
	dir []dirEntry   // sorted by minKey; the DRAM "inner structure"

	locks []sync.Mutex // per-leaf write locks, indexed by leaf number

	bump  nvm.Addr
	count atomic.Int64
}

type dirEntry struct {
	minKey uint64
	leaf   nvm.Addr
}

// New formats a tree on the heap.
func New(h *nvm.Heap) *Tree {
	t := &Tree{heap: h, locks: make([]sync.Mutex, h.Words()/leafWords+1)}
	t.bump = heapBase
	first := t.allocLeaf()
	h.Store(rootFirstLeaf, uint64(first))
	h.Store(rootBump, uint64(t.bump))
	h.Store(rootMagicA, magic)
	h.FlushRange(rootFirstLeaf, 3)
	h.Fence()
	t.dir = []dirEntry{{minKey: 0, leaf: first}}
	return t
}

func (t *Tree) allocLeaf() nvm.Addr {
	a := t.bump
	t.bump += leafWords
	if int(t.bump) > t.heap.Words() {
		panic("lbtree: out of NVM")
	}
	for i := nvm.Addr(0); i < leafWords; i++ {
		t.heap.Store(a+i, 0)
	}
	t.heap.FlushRange(a, leafWords)
	t.heap.Store(rootBump, uint64(t.bump))
	t.heap.Persist(rootBump)
	return a
}

func (t *Tree) leafLock(leaf nvm.Addr) *sync.Mutex {
	return &t.locks[(leaf-heapBase)/leafWords]
}

// Len returns the number of keys.
func (t *Tree) Len() int { return int(t.count.Load()) }

// NVMBytes returns the NVM consumed by allocated leaves (Table 3).
func (t *Tree) NVMBytes() int64 { return int64(t.bump-heapBase) * nvm.WordBytes }

// DRAMBytes returns the DRAM consumed by the inner structure (Table 3).
func (t *Tree) DRAMBytes() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return int64(len(t.dir)) * 16
}

// findLeaf returns the leaf covering k. Caller holds at least mu.RLock.
func (t *Tree) findLeaf(k uint64) nvm.Addr {
	i := sort.Search(len(t.dir), func(i int) bool { return t.dir[i].minKey > k })
	return t.dir[i-1].leaf
}

func entryAddr(leaf nvm.Addr, s int) nvm.Addr { return leaf + leafEntryOff + nvm.Addr(2*s) }

// Get returns the value stored under k. Reads are lock-free: the bitmap
// word gates entry visibility.
func (t *Tree) Get(k uint64) (uint64, bool) {
	t.mu.RLock()
	leaf := t.findLeaf(k)
	t.mu.RUnlock()
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

// Insert adds or updates k, reporting whether an existing value was
// replaced.
func (t *Tree) Insert(k, v uint64) bool {
	for {
		t.mu.RLock()
		leaf := t.findLeaf(k)
		lk := t.leafLock(leaf)
		lk.Lock()
		// Revalidate under the leaf lock: a split may have moved k.
		if cur := t.findLeaf(k); cur != leaf {
			lk.Unlock()
			t.mu.RUnlock()
			continue
		}
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
			if t.heap.Load(a) == k+1 {
				// In-place value update: one atomic word, one persist.
				t.heap.Store(a+1, v)
				t.heap.Persist(a + 1)
				lk.Unlock()
				t.mu.RUnlock()
				return true
			}
		}
		if free < 0 {
			lk.Unlock()
			t.mu.RUnlock()
			t.split(k)
			continue
		}
		// Logless insert: entry first, bitmap (commit point) second.
		a := entryAddr(leaf, free)
		t.heap.Store(a, k+1)
		t.heap.Store(a+1, v)
		t.heap.FlushRange(a, 2)
		t.heap.Fence()
		t.heap.Store(leaf+leafBitmapOff, bm|1<<free)
		t.heap.Persist(leaf + leafBitmapOff)
		lk.Unlock()
		t.mu.RUnlock()
		t.count.Add(1)
		return false
	}
}

// Remove deletes k, reporting whether it was present. Clearing the bitmap
// bit is the single persisted commit point.
func (t *Tree) Remove(k uint64) bool {
	for {
		t.mu.RLock()
		leaf := t.findLeaf(k)
		lk := t.leafLock(leaf)
		lk.Lock()
		if cur := t.findLeaf(k); cur != leaf {
			lk.Unlock()
			t.mu.RUnlock()
			continue
		}
		bm := t.heap.Load(leaf + leafBitmapOff)
		for s := 0; s < LeafEntries; s++ {
			if bm&(1<<s) == 0 {
				continue
			}
			a := entryAddr(leaf, s)
			if t.heap.Load(a) == k+1 {
				t.heap.Store(leaf+leafBitmapOff, bm&^(1<<s))
				t.heap.Persist(leaf + leafBitmapOff)
				lk.Unlock()
				t.mu.RUnlock()
				t.count.Add(-1)
				return true
			}
		}
		lk.Unlock()
		t.mu.RUnlock()
		return false
	}
}

// split divides the leaf covering k. Failure atomicity: the new leaf is
// fully persisted and linked (the old leaf's next pointer is the commit
// point) before the moved entries are cleared from the old leaf; recovery
// resolves the duplicate window by the key-range invariant.
func (t *Tree) split(k uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	di := sort.Search(len(t.dir), func(i int) bool { return t.dir[i].minKey > k }) - 1
	leaf := t.dir[di].leaf
	lk := t.leafLock(leaf)
	lk.Lock()
	defer lk.Unlock()

	bm := t.heap.Load(leaf + leafBitmapOff)
	if bm != (1<<LeafEntries)-1 {
		return // someone already split or removed
	}
	// Sort live entries by key to find the median.
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

	// Build and persist the new right leaf.
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

	// Commit point: link the right leaf into the chain.
	t.heap.Store(leaf+leafNextOff, uint64(right))
	t.heap.Persist(leaf + leafNextOff)

	// Clear the moved entries from the left leaf.
	var leftBM uint64
	for _, e := range es[:mid] {
		leftBM |= 1 << e.slot
	}
	t.heap.Store(leaf+leafBitmapOff, bm&leftBM)
	t.heap.Persist(leaf + leafBitmapOff)

	// Update the DRAM directory.
	nd := make([]dirEntry, 0, len(t.dir)+1)
	nd = append(nd, t.dir[:di+1]...)
	nd = append(nd, dirEntry{minKey: splitKey, leaf: right})
	nd = append(nd, t.dir[di+1:]...)
	t.dir = nd
}

// Recover reopens a tree after heap.Crash by walking the persistent leaf
// chain and rebuilding the DRAM directory. A crash inside a split may
// leave moved entries present in both leaves; the key-range invariant
// (entries >= the next leaf's minimum belong to the right leaf) resolves
// them, and the repaired bitmap is re-persisted.
func Recover(h *nvm.Heap) *Tree {
	if h.Load(rootMagicA) != magic {
		panic("lbtree: heap not formatted")
	}
	t := &Tree{heap: h, locks: make([]sync.Mutex, h.Words()/leafWords+1)}
	t.bump = nvm.Addr(h.Load(rootBump))
	leaf := nvm.Addr(h.Load(rootFirstLeaf))
	var count int64
	for !leaf.IsNil() {
		next := nvm.Addr(h.Load(leaf + leafNextOff))
		// Minimum key of the next leaf bounds this leaf's key range.
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
				fixed &^= 1 << s // duplicate from an interrupted split
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
		default:
			// Empty leaf mid-chain: leave it out of the directory (it
			// stays linked but receives no new keys).
		}
		leaf = next
	}
	t.count.Store(count)
	return t
}
