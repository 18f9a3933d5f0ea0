// Package palloc is a persistent slab allocator over simulated NVM, in the
// spirit of Ralloc (Cai et al., ISMM'20), the allocator used in the paper's
// experiments.
//
// The heap area is carved into fixed-size slabs, each dedicated to one size
// class when first formatted. Every block carries a one-word durable header
// encoding its status (FREE / ALLOCATED / DELETED), size class, an 8-bit
// user tag, and a 48-bit epoch number — and nothing else: the payload
// starts at the next word. Headers are the authoritative
// source of truth: after a crash, Recover rebuilds all transient state
// (free lists, bump pointers) by scanning slab and block headers, and asks
// a caller-supplied judge which ALLOCATED/DELETED blocks should survive —
// that judgment is where the epoch system implements buffered-durability
// recovery (Sec. 5.2 of the paper).
//
// Blocks are packed from the slab's second cache line on with no padding.
// The smallest class is the 24-byte KV block (header, key, value), 1362 to
// a 32 KiB slab, so two blocks in eight straddle a cache line and two in
// thirty-two an XPLine; the other classes are multiples of the line size.
// The only failure-atomic unit is therefore the header word itself.
//
// One slab class is reserved: a journal slab holds no blocks, only the
// epoch system's retire-journal pages (FormatJournalSlab, JournalSlabs).
// Every block scan skips it; FootprintBytes counts it.
//
// As with real NVM allocators, Alloc and Free flush the headers they
// modify. Those flushes are exactly why allocation must happen *outside*
// hardware transactions (the paper's preallocation pattern, Listing 1).
package palloc

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// Status is a block's durable lifecycle state.
type Status uint8

const (
	// Free blocks belong to the allocator.
	Free Status = iota
	// Allocated blocks belong to the application.
	Allocated
	// Deleted blocks have been logically freed but are retained for
	// crash recovery until their deletion epoch persists. The epoch system
	// sets the mark in the volatile view only; it is on the media only when
	// a write-back of the line happened to carry it.
	Deleted
)

func (s Status) String() string {
	switch s {
	case Free:
		return "FREE"
	case Allocated:
		return "ALLOCATED"
	case Deleted:
		return "DELETED"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// InvalidEpoch tags blocks that have been preallocated but not yet used by
// any operation. Recovery reclaims such blocks unconditionally.
const InvalidEpoch = (uint64(1) << 48) - 1

// HeaderWords is the size of the durable per-block header: one word packing
// status/class/tag and the creation (or last-modification) epoch. The
// deletion epoch is not in the block: a retirement is durable as a record
// in the epoch system's retire journal, which is also what lets recovery
// tell "deleted in an unpersisted epoch but created in a persisted one"
// (DELETED on the media, no record: resurrect) from a deletion that
// persisted (a record at or after the creation epoch: reclaim).
const HeaderWords = 1

// Header is the decoded form of a block's durable header word.
type Header struct {
	Status Status
	Class  int
	Tag    uint8
	Epoch  uint64 // 48-bit; InvalidEpoch for preallocated-unused blocks
}

// Pack encodes the header into its on-media word.
func (h Header) Pack() uint64 {
	return uint64(h.Status)<<62 | uint64(h.Class&0x3f)<<56 |
		uint64(h.Tag)<<48 | (h.Epoch & InvalidEpoch)
}

// UnpackHeader decodes a header word.
func UnpackHeader(w uint64) Header {
	return Header{
		Status: Status(w >> 62),
		Class:  int(w >> 56 & 0x3f),
		Tag:    uint8(w >> 48),
		Epoch:  w & InvalidEpoch,
	}
}

// Size classes, in words including the header word. Class 0 is the KV
// block — header, key, value — and not a divisor of the line size: nothing
// may assume a block is persisted by one line write-back (package comment).
var classWords = []int{3, 8, 16, 32, 64, 128, 256}

// NumClasses is the number of size classes.
func NumClasses() int { return len(classWords) }

// ClassWords returns the total block size of a class, in words.
func ClassWords(class int) int { return classWords[class] }

// PayloadWords returns the user-visible size of a class, in words.
func PayloadWords(class int) int { return classWords[class] - HeaderWords }

// ClassFor returns the smallest class whose payload holds n words.
func ClassFor(n int) int {
	for c, w := range classWords {
		if w-HeaderWords >= n {
			return c
		}
	}
	panic(fmt.Sprintf("palloc: no size class for %d words", n))
}

const (
	slabWords      = 4096 // 32 KiB per slab
	slabHeaderOff  = 0    // slab header occupies the slab's first line
	slabBlocksOff  = nvm.LineWords
	slabMagic      = uint64(0x51ab0000) << 32
	slabMagicMask  = uint64(0xffffffff) << 32
	slabClassShift = 0

	// journalClass is the slab-header class of a journal slab: not a size
	// class — the slab's first XPLine is its header, the rest belongs to
	// whoever formatted it.
	journalClass = 0x3f
)

// slabClass decodes a slab header word: ok reports a formatted slab,
// class its size class or journalClass.
func slabClass(sh uint64) (class int, ok bool) {
	return int(sh >> slabClassShift & 0x3f), sh&slabMagicMask == slabMagic
}

// Allocator manages the portion of a heap above the root words.
type Allocator struct {
	heap  *nvm.Heap
	start nvm.Addr // first slab address (slab-aligned)
	slabs int      // capacity in slabs

	mu        sync.Mutex
	formatted int          // slabs formatted so far
	free      [][]nvm.Addr // per-class free lists (DRAM)
	active    []activeSlab // per-class bump state

	liveBlocks atomic.Int64
	liveBytes  atomic.Int64

	obs *obs.Recorder
}

// SetObs attaches a telemetry recorder: every Alloc and Free emits a
// trace event while a trace is active. A nil recorder disables it.
// Attach before the allocator is shared between goroutines.
func (al *Allocator) SetObs(r *obs.Recorder) { al.obs = r }

type activeSlab struct {
	base nvm.Addr
	next int // next block index within the slab
	cap  int
}

// New creates an allocator over all heap space above the root words.
func New(h *nvm.Heap) *Allocator {
	start := nvm.Addr(((nvm.RootWords + slabWords - 1) / slabWords) * slabWords)
	total := nvm.Addr(h.Words())
	al := &Allocator{
		heap:   h,
		start:  start,
		slabs:  int((total - start) / slabWords),
		free:   make([][]nvm.Addr, len(classWords)),
		active: make([]activeSlab, len(classWords)),
	}
	return al
}

// Heap returns the heap this allocator manages.
func (al *Allocator) Heap() *nvm.Heap { return al.heap }

func slabCap(class int) int {
	return (slabWords - slabBlocksOff) / classWords[class]
}

// formatSlab dedicates the next unformatted slab to class and returns its
// base address. Caller holds al.mu.
func (al *Allocator) formatSlab(class int) nvm.Addr {
	if al.formatted >= al.slabs {
		panic("palloc: out of NVM (all slabs formatted)")
	}
	base := al.start + nvm.Addr(al.formatted*slabWords)
	al.formatted++
	// Durable slab header: magic + class.
	fresh := al.heap.Load(base+slabHeaderOff) == 0
	al.heap.Store(base+slabHeaderOff, slabMagic|uint64(class)<<slabClassShift)
	if class == journalClass || fresh {
		// Nothing else to initialize. A journal page is valid only once its
		// own header word says so, and no page is written before this fence.
		// A slab whose header word reads 0 was never formatted, so its media
		// is still zero — nothing is written into a slab before its header is
		// durable — and a zero block header decodes as FREE: every scan takes
		// the class from the slab header.
		al.heap.Flush(base + slabHeaderOff)
		al.heap.Fence()
		return base
	}
	// A slab that already carries the magic (a fresh epoch system over a
	// used heap) holds stale headers: set every one to FREE so the recovery
	// scan reads coherent state.
	n := slabCap(class)
	hdr := Header{Status: Free, Class: class}.Pack()
	for i := 0; i < n; i++ {
		al.heap.Store(base+slabBlocksOff+nvm.Addr(i*classWords[class]), hdr)
	}
	al.heap.FlushRange(base, slabWords)
	al.heap.Fence()
	return base
}

// journalArea is the part of a journal slab its owner may write: everything
// past the slab header's XPLine.
func journalArea(base nvm.Addr) nvm.Extent {
	return nvm.Extent{Addr: base + nvm.XPLineWords, Words: slabWords - nvm.XPLineWords}
}

// FormatJournalSlab dedicates the next unformatted slab to the epoch
// system's retire journal and returns its XPLine-aligned writable area.
// Like any slab it is formatted durably, in address order, and never
// returned.
func (al *Allocator) FormatJournalSlab() nvm.Extent {
	al.mu.Lock()
	defer al.mu.Unlock()
	return journalArea(al.formatSlab(journalClass))
}

// JournalSlabs returns the writable areas of the formatted journal slabs,
// in address order, read from the slab headers (so after a crash it sees
// the persisted ones). It must not run concurrently with slab formatting.
func (al *Allocator) JournalSlabs() []nvm.Extent {
	var areas []nvm.Extent
	for s := 0; s < al.slabs; s++ {
		base := al.start + nvm.Addr(s*slabWords)
		class, ok := slabClass(al.heap.Load(base + slabHeaderOff))
		if !ok {
			break
		}
		if class == journalClass {
			areas = append(areas, journalArea(base))
		}
	}
	return areas
}

// Alloc returns an ALLOCATED block of the given class, tagged with
// InvalidEpoch and the supplied user tag. The header is flushed before
// Alloc returns (which is why allocation cannot run inside a hardware
// transaction). The returned address is the block header; the payload
// starts one word above it.
func (al *Allocator) Alloc(class int, tag uint8) nvm.Addr {
	if class < 0 || class >= len(classWords) {
		panic(fmt.Sprintf("palloc: bad class %d", class))
	}
	al.mu.Lock()
	b := al.takeLocked(class)
	al.mu.Unlock()

	// Ralloc-style lazy persistence: the header is NOT flushed here. If
	// the block never reaches a persisted epoch, the media still holds
	// its previous durable state (FREE from slab formatting — a zero word
	// on a fresh slab — or a recovery's reclaim, or the incarnation whose
	// persisted retirement the epoch system's journal records) and
	// recovery reclaims it; when the block does persist, the epoch
	// system's flush covers the whole block, header included. Keeping
	// this store volatile removes a flush+fence from every allocation —
	// the cost the paper attributes to "memory management for KV pairs"
	// (Sec. 4.1).
	al.heap.Store(b, Header{Status: Allocated, Class: class, Tag: tag, Epoch: InvalidEpoch}.Pack())
	al.liveBlocks.Add(1)
	if al.obs != nil {
		al.obs.Hit(obs.EvAlloc, uint64(b), uint64(class))
	}
	al.liveBytes.Add(int64(classWords[class] * nvm.WordBytes))
	return b
}

// takeLocked pops a free block of class or carves one from the active
// slab, formatting a new slab when the bump space is exhausted. Caller
// holds al.mu.
func (al *Allocator) takeLocked(class int) nvm.Addr {
	if n := len(al.free[class]); n > 0 {
		b := al.free[class][n-1]
		al.free[class] = al.free[class][:n-1]
		return b
	}
	as := &al.active[class]
	if as.base.IsNil() || as.next >= as.cap {
		as.base = al.formatSlab(class)
		as.next = 0
		as.cap = slabCap(class)
	}
	b := as.base + slabBlocksOff + nvm.Addr(as.next*classWords[class])
	as.next++
	return b
}

// AllocWords allocates a block whose payload holds at least n words.
func (al *Allocator) AllocWords(n int, tag uint8) nvm.Addr {
	return al.Alloc(ClassFor(n), tag)
}

// Free marks a block FREE and returns it to its class free list. Like
// Alloc, the header store is volatile (see Alloc): a freed block is only
// freed because its deletion persisted (or it was never visible), so the
// media already holds a state recovery handles correctly.
func (al *Allocator) Free(b nvm.Addr) {
	class := al.release(b)
	al.mu.Lock()
	al.free[class] = append(al.free[class], b)
	al.mu.Unlock()
}

// FreeBatch frees every block of bs as Free would, pushing them onto the
// free lists in descending address order (it sorts bs): the lists pop from
// the top, so the batch is allocated again in ascending order, and the
// blocks one epoch allocates share cache lines and XPLines instead of
// scattering.
func (al *Allocator) FreeBatch(bs []nvm.Addr) {
	slices.Sort(bs)
	al.mu.Lock()
	defer al.mu.Unlock()
	for i := len(bs) - 1; i >= 0; i-- {
		class := al.release(bs[i])
		al.free[class] = append(al.free[class], bs[i])
	}
}

// release marks b FREE and settles the live accounting, returning its class
// for the caller to push it on a free list.
func (al *Allocator) release(b nvm.Addr) (class int) {
	hdr := al.ReadHeader(b)
	if hdr.Status == Free {
		panic(fmt.Sprintf("palloc: double free of block %d", b))
	}
	al.heap.Store(b, Header{Status: Free, Class: hdr.Class}.Pack())
	al.liveBlocks.Add(-1)
	if al.obs != nil {
		al.obs.Hit(obs.EvFree, uint64(b), uint64(hdr.Class))
	}
	al.liveBytes.Add(-int64(classWords[hdr.Class] * nvm.WordBytes))
	return hdr.Class
}

// ReadHeader decodes the current (volatile-view) header of block b.
func (al *Allocator) ReadHeader(b nvm.Addr) Header {
	return UnpackHeader(al.heap.Load(b))
}

// WriteHeader stores a new header for b without flushing. Callers that
// need durability flush separately or defer to the epoch system.
func (al *Allocator) WriteHeader(b nvm.Addr, h Header) {
	al.heap.Store(b, h.Pack())
}

// Payload returns the address of the block's first payload word.
func Payload(b nvm.Addr) nvm.Addr { return b + HeaderWords }

// LiveBlocks returns the number of currently allocated (or deleted but not
// yet reclaimed) blocks.
func (al *Allocator) LiveBlocks() int64 { return al.liveBlocks.Load() }

// LiveBytes returns the bytes currently consumed by live blocks.
func (al *Allocator) LiveBytes() int64 { return al.liveBytes.Load() }

// FootprintBytes returns the NVM consumed by all formatted slabs — the
// structure-level space number reported in the paper's Table 3 and Fig. 8.
func (al *Allocator) FootprintBytes() int64 {
	al.mu.Lock()
	defer al.mu.Unlock()
	return int64(al.formatted) * slabWords * nvm.WordBytes
}
