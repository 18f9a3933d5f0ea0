// Package cceh implements a CCEH-style persistent hash table (Nam et al.,
// FAST'19): cache-line-conscious extendible hashing, fully resident in
// NVM, failure atomic without logging. It is one of the two hash-table
// baselines in the paper's Fig. 6.
//
// Layout: a directory of segment addresses and the segments themselves
// all live in NVM. Each segment holds cache-line-sized buckets of
// (key, value) slot pairs. Updates take a per-segment reader/writer lock
// (transient, rebuilt after a crash); searches are lock-free-style reads
// under the read lock. Every insert performs the paper-quoted minimum of
// three persist operations: the value word, then the key word (the commit
// point), each flushed and fenced in order, plus directory/segment
// flushes on structural changes. Strict durable linearizability is the
// point — and the cost the paper's BD-Spash avoids.
//
// Simplifications vs. the original (see DESIGN.md): lazy segment merges
// are omitted, and probing is bucket-local linear probing over four
// cache-line buckets rather than MSB-based two-level probing.
package cceh

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bdhtm/internal/nvm"
)

const (
	slotsPerBucket = 4  // one 64-byte line: 4 key words + 4 value words interleaved
	bucketsPerSeg  = 64 // 64 buckets -> 256 slots per segment
	segSlots       = slotsPerBucket * bucketsPerSeg
	segWords       = 1 + 2*segSlots // localDepth + (key,value) pairs
	probeBuckets   = 4

	maxSegLocks = 1 << 16

	// Heap layout.
	rootGlobalDepth nvm.Addr = nvm.RootWords + 0
	rootDirAddr     nvm.Addr = nvm.RootWords + 1
	rootBump        nvm.Addr = nvm.RootWords + 2
	rootMagicA      nvm.Addr = nvm.RootWords + 3
	heapBase        nvm.Addr = nvm.RootWords + 8

	magic = 0xccE4001

	maxDepth = 16 // directory capped at 65536 entries
)

// Table is a CCEH-style persistent hash table. It owns its heap.
type Table struct {
	heap *nvm.Heap

	dirMu sync.Mutex // serializes splits and doubling
	locks []sync.RWMutex

	count atomic.Int64
	bump  nvm.Addr // next free heap word (mirrored durably)

}

func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ k>>33
}

// New formats a table on the heap with the given initial directory depth.
func New(h *nvm.Heap, initialDepth int) *Table {
	t := &Table{heap: h, locks: make([]sync.RWMutex, maxSegLocks)}
	t.bump = heapBase
	// Directory sized for the maximum depth so doubling never moves it.
	dir := t.alloc(1 << maxDepth)
	n := 1 << initialDepth
	for i := 0; i < n; i++ {
		seg := t.allocSegment(uint64(initialDepth))
		h.Store(dir+nvm.Addr(i), uint64(seg))
	}
	h.FlushRange(dir, n)
	h.Store(rootGlobalDepth, uint64(initialDepth))
	h.Store(rootDirAddr, uint64(dir))
	h.Store(rootMagicA, magic)
	t.persistBump()
	h.FlushRange(rootGlobalDepth, 8)
	h.Fence()
	return t
}

func (t *Table) alloc(words int) nvm.Addr {
	a := t.bump
	t.bump += nvm.Addr(words)
	if int(t.bump) > t.heap.Words() {
		panic("cceh: out of NVM")
	}
	return a
}

func (t *Table) persistBump() {
	t.heap.Store(rootBump, uint64(t.bump))
	t.heap.Persist(rootBump)
}

// allocSegment formats a segment: localDepth word + zeroed slots. Keys
// are stored +1 so the zero word means "empty slot".
func (t *Table) allocSegment(localDepth uint64) nvm.Addr {
	seg := t.alloc(segWords)
	t.heap.Store(seg, localDepth)
	for i := 1; i < segWords; i++ {
		t.heap.Store(seg+nvm.Addr(i), 0)
	}
	t.heap.FlushRange(seg, segWords)
	t.heap.Fence()
	t.persistBump()
	return seg
}

// Len returns the number of keys.
func (t *Table) Len() int { return int(t.count.Load()) }

func (t *Table) dir() (nvm.Addr, uint64) {
	return nvm.Addr(t.heap.Load(rootDirAddr)), t.heap.Load(rootGlobalDepth)
}

// segFor returns the segment address and its lock for hash h.
func (t *Table) segFor(h uint64) (nvm.Addr, *sync.RWMutex, uint64) {
	dir, gd := t.dir()
	idx := h & (1<<gd - 1)
	seg := nvm.Addr(t.heap.Load(dir + nvm.Addr(idx)))
	return seg, &t.locks[uint64(seg)%maxSegLocks], idx
}

// slotAddr returns the key-word address of slot s (its value word is +1).
func slotAddr(seg nvm.Addr, s int) nvm.Addr { return seg + 1 + nvm.Addr(2*s) }

// probe iterates the probeBuckets*slotsPerBucket slots for hash h.
func probeRange(h uint64) (start, n int) {
	b := int(h>>40) % bucketsPerSeg
	return b * slotsPerBucket, probeBuckets * slotsPerBucket
}

func probeSlot(start, i int) int { return (start + i) % segSlots }

// Get returns the value stored under k.
func (t *Table) Get(k uint64) (uint64, bool) {
	h := hash64(k)
	for {
		seg, lock, _ := t.segFor(h)
		lock.RLock()
		// Revalidate: the segment may have split while we raced.
		if cur, _, _ := t.segFor(h); cur != seg {
			lock.RUnlock()
			continue
		}
		start, n := probeRange(h)
		for i := 0; i < n; i++ {
			a := slotAddr(seg, probeSlot(start, i))
			if t.heap.Load(a) == k+1 {
				v := t.heap.Load(a + 1)
				lock.RUnlock()
				return v, true
			}
		}
		lock.RUnlock()
		return 0, false
	}
}

// Insert adds or updates k, reporting whether an existing value was
// replaced. The slot's value word is persisted before its key word: the
// key write is the commit point, so a crash exposes either the complete
// pair or nothing.
func (t *Table) Insert(k, v uint64) bool {
	h := hash64(k)
	for {
		seg, lock, _ := t.segFor(h)
		lock.Lock()
		if cur, _, _ := t.segFor(h); cur != seg {
			lock.Unlock()
			continue
		}
		start, n := probeRange(h)
		free := -1
		for i := 0; i < n; i++ {
			s := probeSlot(start, i)
			a := slotAddr(seg, s)
			kw := t.heap.Load(a)
			if kw == k+1 {
				// Update: persist the new value in place.
				t.heap.Store(a+1, v)
				t.heap.Persist(a + 1)
				lock.Unlock()
				return true
			}
			if kw == 0 && free < 0 {
				free = s
			}
		}
		if free < 0 {
			lock.Unlock()
			t.split(h)
			continue
		}
		a := slotAddr(seg, free)
		t.heap.Store(a+1, v)
		t.heap.Persist(a + 1) // persist value first
		t.heap.Store(a, k+1)
		t.heap.Persist(a) // key write is the commit point
		lock.Unlock()
		t.count.Add(1)
		return false
	}
}

// Remove deletes k, reporting whether it was present.
func (t *Table) Remove(k uint64) bool {
	h := hash64(k)
	for {
		seg, lock, _ := t.segFor(h)
		lock.Lock()
		if cur, _, _ := t.segFor(h); cur != seg {
			lock.Unlock()
			continue
		}
		start, n := probeRange(h)
		for i := 0; i < n; i++ {
			a := slotAddr(seg, probeSlot(start, i))
			if t.heap.Load(a) == k+1 {
				t.heap.Store(a, 0)
				t.heap.Persist(a)
				lock.Unlock()
				t.count.Add(-1)
				return true
			}
		}
		lock.Unlock()
		return false
	}
}

// split splits the segment covering h, doubling the directory if needed.
// Failure atomicity: the two new segments are fully persisted before the
// directory entries are redirected (and the redirection is persisted
// before the split is visible to new operations through the directory).
func (t *Table) split(h uint64) {
	t.dirMu.Lock()
	defer t.dirMu.Unlock()
	dir, gd := t.dir()
	idx := h & (1<<gd - 1)
	seg := nvm.Addr(t.heap.Load(dir + nvm.Addr(idx)))
	lock := &t.locks[uint64(seg)%maxSegLocks]
	lock.Lock()
	defer lock.Unlock()

	// Re-check fullness: another split may have fixed it.
	start, n := probeRange(h)
	full := true
	for i := 0; i < n; i++ {
		if t.heap.Load(slotAddr(seg, probeSlot(start, i))) == 0 {
			full = false
			break
		}
	}
	if !full {
		return
	}

	ld := t.heap.Load(seg)
	if ld == gd {
		if gd+1 > maxDepth {
			panic("cceh: directory beyond maximum depth")
		}
		// Double: duplicate pointers into the upper half.
		for j := uint64(0); j < 1<<gd; j++ {
			p := t.heap.Load(dir + nvm.Addr(j))
			t.heap.Store(dir+nvm.Addr(j+1<<gd), p)
		}
		t.heap.FlushRange(dir+nvm.Addr(uint64(1)<<gd), 1<<gd)
		t.heap.Fence()
		t.heap.Store(rootGlobalDepth, gd+1)
		t.heap.Persist(rootGlobalDepth)
		gd++
	}

	s0 := t.allocSegment(ld + 1)
	s1 := t.allocSegment(ld + 1)
	for s := 0; s < segSlots; s++ {
		a := slotAddr(seg, s)
		kw := t.heap.Load(a)
		if kw == 0 {
			continue
		}
		key := kw - 1
		kh := hash64(key)
		dst := s0
		if kh>>ld&1 == 1 {
			dst = s1
		}
		st, nn := probeRange(kh)
		placed := false
		for i := 0; i < nn; i++ {
			da := slotAddr(dst, probeSlot(st, i))
			if t.heap.Load(da) == 0 {
				t.heap.Store(da+1, t.heap.Load(a+1))
				t.heap.Store(da, kw)
				placed = true
				break
			}
		}
		if !placed {
			panic(fmt.Sprintf("cceh: split overflow for key %d", key))
		}
	}
	t.heap.FlushRange(s0, segWords)
	t.heap.FlushRange(s1, segWords)
	t.heap.Fence()
	for j := uint64(0); j < 1<<gd; j++ {
		if nvm.Addr(t.heap.Load(dir+nvm.Addr(j))) != seg {
			continue
		}
		target := s0
		if j>>ld&1 == 1 {
			target = s1
		}
		t.heap.Store(dir+nvm.Addr(j), uint64(target))
		t.heap.Flush(dir + nvm.Addr(j))
	}
	t.heap.Fence()
}

// Recover reopens a table after heap.Crash. The directory and segments
// are authoritative in NVM; only the lock array and the count need
// rebuilding.
func Recover(h *nvm.Heap) *Table {
	if h.Load(rootMagicA) != magic {
		panic("cceh: heap not formatted")
	}
	t := &Table{heap: h, locks: make([]sync.RWMutex, maxSegLocks)}
	t.bump = nvm.Addr(h.Load(rootBump))
	dir, gd := t.dir()
	seen := make(map[nvm.Addr]bool)
	for j := uint64(0); j < 1<<gd; j++ {
		seg := nvm.Addr(h.Load(dir + nvm.Addr(j)))
		if seen[seg] {
			continue
		}
		seen[seg] = true
		for s := 0; s < segSlots; s++ {
			if h.Load(slotAddr(seg, s)) != 0 {
				t.count.Add(1)
			}
		}
	}
	return t
}
