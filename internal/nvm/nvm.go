// Package nvm simulates byte-addressable non-volatile memory fronted by a
// volatile CPU cache, as seen by software on an ADR (asynchronous DRAM
// refresh) machine with Intel Optane DC persistent memory.
//
// The simulation is word-oriented: the heap is an array of 64-bit words,
// grouped into 64-byte cache lines and 256-byte "XPLines" (the internal
// access granularity of first-generation Optane media).
//
// The heap keeps one copy of memory, the volatile view (what the CPU sees
// through its cache): one anonymous mapping of the heap's size outside the
// Go heap (MapWords), as NVM is memory a program maps. A word never stored
// to reads zero, the state a fresh heap and the media start in, and costs
// nothing; the first store into a 32 KiB page faults the page in (Stats
// counts them). A crash overwrites the view in place, so a WordPtr is
// stable until the collected Heap releases the mapping. Under the race
// detector, which sees atomics only on the Go heap, and off Linux, the view
// is Go memory instead (mapping_other.go).
//
// The persistent image (what has reached the NVM media) is derived, not
// stored: a clean line's persisted contents are its view, and a dirty
// line's are its pre-image, the line's contents when it last became dirty,
// saved at that moment and dropped when the line is written back. A line
// whose pre-image is all zero (every line the first time it is stored to)
// saves nothing. So the image costs a 72-byte slot per dirty line that
// held data, and a 1 KiB index per page stored to (preImages); Stats
// reports how many lines hold a pre-image now.
//
// Each page has a lock, and a line's dirty bit changes only under it. A
// store to a clean line takes the lock, saves the pre-image, sets the
// dirty bit and then stores. A store to a dirty line takes no lock; it
// checks the dirty bit again after storing, and if a racing write-back
// cleaned the line meanwhile (so the store may have reached the media
// with it) it saves a new pre-image, which holds the store. A write-back
// clears the dirty bit and drops the pre-image under the lock, and
// PersistedLoad reads under it.
//
// Stores update only the volatile view and mark the containing cache line
// dirty. A line reaches the persistent image when it is explicitly flushed
// (Flush, modeling clwb/clflushopt) or when the simulated cache evicts it in
// an unpredictable order (modeling capacity write-back). Crash puts each
// dirty line's pre-image back into the view, so software layered on this
// package observes exactly the post-crash states that make persistent
// programming hard: the gap between point of visibility and point of
// persistence, and out-of-order line write-back.
//
// Three modes are supported:
//
//   - ModeADR: volatile cache; flush+fence required for durability.
//   - ModeEADR: persistent cache (Intel eADR); every store is durable at the
//     point of visibility, flushes are performance hints only.
//   - ModeDRAM: plain DRAM; nothing survives a crash (the view is zeroed).
//     Used for transient baselines so that all structures share one memory
//     substrate.
//
// An optional latency model charges calibrated busy-wait delays for cache
// misses, write-backs, flushes and fences, reproducing the ~3x read and
// ~10x write latency gap between Optane and DRAM that the paper's
// evaluation depends on.
package nvm

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
)

// Fundamental granularities, in words and bytes. A word is 8 bytes.
const (
	WordBytes   = 8
	LineWords   = 8 // 64-byte cache line
	LineBytes   = LineWords * WordBytes
	XPLineWords = 32 // 256-byte Optane media access unit
	XPLineBytes = XPLineWords * WordBytes

	// RootWords is the number of words at the start of the heap reserved
	// for durable roots (epoch counters, allocator metadata pointers).
	// Addr 0 is never handed out by allocators and doubles as a nil value.
	RootWords = 64
)

// Addr is a word offset into the heap. Addr 0 is reserved as a nil sentinel.
type Addr uint64

// IsNil reports whether the address is the nil sentinel.
func (a Addr) IsNil() bool { return a == 0 }

// Line returns the index of the cache line containing a.
func (a Addr) Line() uint64 { return uint64(a) / LineWords }

// XPLine returns the index of the 256-byte media line containing a.
func (a Addr) XPLine() uint64 { return uint64(a) / XPLineWords }

// Mode selects the durability behaviour of the simulated memory.
type Mode int

const (
	// ModeADR models a volatile cache over NVM: stores require explicit
	// flush and fence to become durable.
	ModeADR Mode = iota
	// ModeEADR models a persistent (battery-backed) cache: stores are
	// durable once globally visible.
	ModeEADR
	// ModeDRAM models plain transient memory: a crash loses everything.
	ModeDRAM
)

func (m Mode) String() string {
	switch m {
	case ModeADR:
		return "ADR"
	case ModeEADR:
		return "eADR"
	case ModeDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// LatencyProfile gives the extra delays (in nanoseconds) charged for
// simulated memory events. A zero profile disables latency simulation.
type LatencyProfile struct {
	ReadMissNS  int // cache miss served from NVM media
	WriteBackNS int // eviction write-back of a dirty line
	FlushNS     int // explicit clwb/clflushopt of one line
	FenceNS     int // sfence draining the write-pending queue
}

// Zero reports whether the profile disables latency simulation entirely.
func (p LatencyProfile) Zero() bool {
	return p.ReadMissNS == 0 && p.WriteBackNS == 0 && p.FlushNS == 0 && p.FenceNS == 0
}

// OptaneProfile approximates first-generation Optane DC behaviour relative
// to DRAM: ~3x read latency on misses and substantially more expensive
// write-backs, matching the asymmetry reported in the paper (Sec. 1, 4.1).
//
// Calibration note: the flush/fence costs are scaled so that the
// *persist-to-transaction* cost ratio matches the paper's testbed. This
// simulator's software transactions cost hundreds of nanoseconds where
// real HTM commits are nearly free, so persist operations carry
// proportionally larger absolute delays; what the experiments compare is
// the ratio, which drives every figure's shape.
var OptaneProfile = LatencyProfile{
	ReadMissNS:  170,
	WriteBackNS: 150,
	FlushNS:     900,
	FenceNS:     350,
}

// DRAMProfile models plain DRAM as the zero-latency baseline.
var DRAMProfile = LatencyProfile{}

// Config describes a simulated heap.
type Config struct {
	// Words is the heap size in 8-byte words. Rounded up to a whole
	// number of XPLines. Must cover at least RootWords.
	Words int
	// Mode selects ADR, eADR, or DRAM semantics. Default ADR.
	Mode Mode
	// Latency enables the latency model when non-zero.
	Latency LatencyProfile
	// CacheLines bounds the simulated cache in 64-byte lines; when the
	// number of resident lines exceeds the bound, random lines are
	// evicted (written back if dirty). 0 disables capacity eviction.
	CacheLines int
	// Seed seeds the eviction RNG; 0 selects a fixed default so that
	// simulations are reproducible.
	Seed uint64
}

// Heap is a simulated NVM region. All word accesses are atomic, so a Heap
// may be shared freely between goroutines.
type Heap struct {
	cfg  Config
	view []uint64                    // volatile view (CPU perspective), a MapWords mapping; its length is the heap's
	pre  []atomic.Pointer[preImages] // per page: its lock and its dirty lines' pre-images

	dirty   bitset // lines whose persisted contents are their pre-image, not the view
	cached  bitset // lines currently resident in the simulated cache
	touched bitset // view pages stored to, and so faulted in

	residentLines atomic.Int64 // approximate count of cached lines

	evictMu  sync.Mutex
	evictRNG *rand.Rand

	persistHook atomic.Pointer[func(PersistPoint, Addr)]
	storeHook   atomic.Pointer[func(Addr)]

	stats   Stats
	crashes atomic.Int64
}

// PersistPoint identifies one durability-relevant heap event observed by a
// persist hook: the instants at which a crash would leave distinct media
// states. Crash-consistency fuzzers (internal/crashfuzz) and
// crash-at-every-step tests use these as injection points.
type PersistPoint uint8

const (
	// PointFlush fires immediately before an explicit line flush (clwb)
	// takes effect. A crash here loses the line being flushed.
	PointFlush PersistPoint = iota
	// PointFence fires immediately before a fence is accounted.
	PointFence
	// PointWriteBack fires immediately before a capacity eviction writes
	// a dirty line back to the media (the unpredictable write-back that
	// makes persistent programming hard).
	PointWriteBack
)

func (p PersistPoint) String() string {
	switch p {
	case PointFlush:
		return "flush"
	case PointFence:
		return "fence"
	case PointWriteBack:
		return "writeback"
	default:
		return fmt.Sprintf("PersistPoint(%d)", uint8(p))
	}
}

// SetPersistHook installs fn, called synchronously on every durability
// event (explicit flush, fence, eviction write-back) with the event kind
// and the address of the first word involved. Passing nil removes the
// hook. The hook may panic to simulate a power failure at that exact
// instant; callers are expected to recover the panic, call Crash, and run
// recovery. Install/remove only while no other goroutine uses the heap.
func (h *Heap) SetPersistHook(fn func(PersistPoint, Addr)) {
	if fn == nil {
		h.persistHook.Store(nil)
		return
	}
	h.persistHook.Store(&fn)
}

// SetStoreHook installs fn, called synchronously after every store to the
// volatile view (Store, Add, a CompareAndSwap that succeeded) with the
// address written, once the line has been marked dirty. It is what lets a
// crash test play the cache at its worst: write a line back (Flush) between
// two stores of one operation, the tear no explicit persist event marks.
// Passing nil removes the hook; Crash removes it too. Install/remove only
// while no other goroutine uses the heap.
func (h *Heap) SetStoreHook(fn func(Addr)) {
	if fn == nil {
		h.storeHook.Store(nil)
		return
	}
	h.storeHook.Store(&fn)
}

// fireStore invokes the store hook, if any.
func (h *Heap) fireStore(a Addr) {
	if fn := h.storeHook.Load(); fn != nil {
		(*fn)(a)
	}
}

// firePersist invokes the persist hook, if any.
func (h *Heap) firePersist(p PersistPoint, a Addr) {
	if fn := h.persistHook.Load(); fn != nil {
		(*fn)(p, a)
	}
}

// New creates a heap of the configured size. The heap starts zeroed, with
// the zero state already persistent; New maps the view and allocates the
// pre-image table pointers and the bitsets, and no page (see the package
// doc).
func New(cfg Config) *Heap {
	if cfg.Words < RootWords {
		cfg.Words = RootWords
	}
	if r := cfg.Words % XPLineWords; r != 0 {
		cfg.Words += XPLineWords - r
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	lines := cfg.Words / LineWords
	pages := (cfg.Words + pageWords - 1) / pageWords
	h := &Heap{
		cfg:      cfg,
		view:     MapWords(cfg.Words),
		pre:      make([]atomic.Pointer[preImages], pages),
		dirty:    newBitset(lines),
		cached:   newBitset(lines),
		touched:  newBitset(pages),
		evictRNG: rand.New(rand.NewPCG(seed, seed^0xda942042e4dd58b5)),
	}
	runtime.AddCleanup(h, UnmapWords, h.view)
	if !cfg.Latency.Zero() {
		calibrateSpin()
	}
	return h
}

// Words returns the heap size in words.
func (h *Heap) Words() int { return len(h.view) }

// Mode returns the durability mode of the heap.
func (h *Heap) Mode() Mode { return h.cfg.Mode }

// Stats returns a snapshot of the heap's event counters.
func (h *Heap) Stats() StatsSnapshot {
	st := h.stats.snapshot()
	st.ViewPages = h.touched.count()
	return st
}

// Crashes returns how many simulated crashes this heap has been through.
func (h *Heap) Crashes() int64 { return h.crashes.Load() }

// check panics if a is not an address of the heap. The word accessors
// need not call it: their index into the view checks, first.
func (h *Heap) check(a Addr) {
	if uint64(a) >= uint64(len(h.view)) {
		panic(fmt.Sprintf("nvm: address %d out of range (heap %d words)", a, len(h.view)))
	}
}

// touch simulates the cache-residency effects of accessing line l.
// It returns true if the access was a miss. The hit path — the common
// case by far on a warmed structure — is a single plain atomic load of
// the residency bitset word; goroutines hitting resident lines never
// issue an RMW, so they never contend on the bitset's cache lines.
func (h *Heap) touch(l uint64) bool {
	if h.cached.test(l) {
		return false // hit
	}
	return h.touchMiss(l)
}

// touchMiss is the slow path of touch: claim residency with the RMW
// (another goroutine may win the race, turning this back into a hit),
// then charge miss accounting and apply cache-capacity pressure.
func (h *Heap) touchMiss(l uint64) bool {
	if h.cached.testAndSet(l) {
		return false // raced: someone else installed the line
	}
	h.stats.misses.Add(l, 1)
	if !h.cfg.Latency.Zero() {
		spin(h.cfg.Latency.ReadMissNS)
	}
	if h.cfg.CacheLines > 0 {
		if h.residentLines.Add(1) > int64(h.cfg.CacheLines) {
			h.evictSome()
		}
	}
	return true
}

// evictSome evicts randomly chosen resident lines, writing dirty ones
// back to the persistent image, until residency is back under the
// configured budget. This models the unpredictable order in which a
// real cache writes lines back to NVM. One goroutine at a time applies
// pressure; losers of the TryLock return immediately and rely on the
// winner looping until the budget holds, so residency cannot ratchet
// past CacheLines just because misses raced with an eviction pass.
func (h *Heap) evictSome() {
	if !h.evictMu.TryLock() {
		return // someone else is already applying pressure
	}
	defer h.evictMu.Unlock()
	lines := uint64(len(h.view) / LineWords)
	const batch = 16
	for h.residentLines.Load() > int64(h.cfg.CacheLines) {
		evicted := 0
		for try := 0; try < batch*8 && evicted < batch; try++ {
			l := h.evictRNG.Uint64N(lines)
			if !h.cached.testAndClear(l) {
				continue
			}
			h.residentLines.Add(-1)
			evicted++
			if h.dirty.test(l) {
				h.firePersist(PointWriteBack, Addr(l*LineWords))
				if h.cleanLine(l) {
					h.chargeWriteBack(l, true)
				}
			}
		}
		if evicted == 0 {
			// Random probing found nothing resident (the counter can
			// briefly run ahead of the bitset while misses are mid-
			// installation); give up rather than spin.
			return
		}
	}
}

// pageWords is the granularity at which the view is faulted in: 4096
// words, 32 KiB — one palloc slab, a whole number of lines and XPLines.
// It is also the span of one lock and one pre-image table.
const pageWords = 4096

// capture makes line l, which was clean when its caller looked, dirty:
// it takes the page's lock and, should the line still be clean, saves the
// line's contents as its pre-image and sets the dirty bit. A store checks
// the dirty bit and calls it before it stores, so the pre-image cannot
// hold the store, and again after, so a line that a racing write-back
// cleaned (with or without the store) is dirty again over a pre-image that
// holds it (package doc). The check stays at the call sites, where it
// inlines.
func (h *Heap) capture(l uint64) {
	t := h.lockPage(l)
	if !h.dirty.test(l) {
		h.save(t, l, h.readLine(l))
		h.dirty.set(l)
	}
	t.mu.Unlock()
}

// lockPage returns line l's page's pre-image table, locked, making the
// table on its first use. Every store to a clean line comes through here
// before it stores, so the page's first store does: that one marks the
// page touched and faults it in.
func (h *Heap) lockPage(l uint64) *preImages {
	p := l / pageLines
	if !h.touched.test(p) && !h.touched.testAndSet(p) {
		Populate(h.view[p*pageWords : min((p+1)*pageWords, uint64(len(h.view)))])
	}
	t := materialise(&h.pre[p])
	t.mu.Lock()
	return t
}

// materialise returns the pre-image table in slot, creating it on first
// use. First stores into a page race here; the CAS picks one table and
// every racer uses the winner.
func materialise(slot *atomic.Pointer[preImages]) *preImages {
	if t := slot.Load(); t != nil {
		return t
	}
	slot.CompareAndSwap(nil, new(preImages))
	return slot.Load()
}

// save keeps w, line l's persisted contents, as its pre-image in t, whose
// lock the caller holds. An all-zero pre-image takes no slot.
func (h *Heap) save(t *preImages, l uint64, w [LineWords]uint64) {
	if w != ([LineWords]uint64{}) {
		t.put(pageLine(l), &w)
		h.stats.preImages.Add(l, 1)
	}
}

// readLine reads line l of the view.
func (h *Heap) readLine(l uint64) (w [LineWords]uint64) {
	src := h.view[l*LineWords:][:LineWords]
	for i := range w {
		w[i] = atomic.LoadUint64(&src[i])
	}
	return w
}

// cleanLine writes line l back, if it is dirty: under its page's lock it
// clears the dirty bit and drops the pre-image, which makes the view the
// line's persisted contents. It reports whether the line was dirty; a
// write-back's charges are the caller's (chargeWriteBack, flushLine).
func (h *Heap) cleanLine(l uint64) bool {
	if !h.dirty.test(l) {
		return false
	}
	t := h.pre[l*LineWords/pageWords].Load() // a dirty line's page has one
	t.mu.Lock()
	was := h.cleanLocked(t, l)
	t.mu.Unlock()
	return was
}

// cleanLocked is cleanLine with line l's page lock, t's, held.
func (h *Heap) cleanLocked(t *preImages, l uint64) bool {
	was := h.dirty.testAndClear(l)
	if was && t.drop(pageLine(l)) {
		h.stats.preImages.Add(l, -1)
	}
	return was
}

// chargeWriteBack charges the media-write accounting of one line written
// back on its own (cleanLine).
func (h *Heap) chargeWriteBack(l uint64, eviction bool) {
	h.stats.lineWritebacks.Add(l, 1)
	if eviction {
		h.stats.evictions.Add(l, 1)
		if !h.cfg.Latency.Zero() {
			spin(h.cfg.Latency.WriteBackNS)
		}
	}
	// Each independent line write-back costs one XPLine of media write.
	// (FlushRange coalesces adjacent lines and accounts separately.)
	h.stats.mediaWrites.Add(l, 1)
	h.stats.mediaBytes.Add(l, XPLineBytes)
	h.stats.usefulBytes.Add(l, LineBytes)
}

// Load atomically reads the word at a from the volatile view.
func (h *Heap) Load(a Addr) uint64 {
	w, l := &h.view[a], a.Line()
	h.stats.loads.Add(l, 1)
	h.touch(l)
	return atomic.LoadUint64(w)
}

// Store atomically writes the word at a in the volatile view and marks the
// containing line dirty. The write is not durable until the line is flushed
// or evicted (ModeADR); in ModeEADR it is durable immediately.
func (h *Heap) Store(a Addr, v uint64) {
	w, l := &h.view[a], a.Line()
	h.stats.stores.Add(l, 1)
	h.touch(l)
	if !h.dirty.test(l) {
		h.capture(l) // before the store: the pre-image cannot hold it
	}
	atomic.StoreUint64(w, v)
	if !h.dirty.test(l) {
		h.capture(l) // a racing write-back cleaned the line
	}
	h.fireStore(a)
}

// CompareAndSwap atomically replaces the word at a if it equals old. A
// swap that fails leaves a clean line clean.
func (h *Heap) CompareAndSwap(a Addr, old, new uint64) bool {
	w, l := &h.view[a], a.Line()
	h.stats.stores.Add(l, 1)
	h.touch(l)
	var ok bool
	if h.dirty.test(l) {
		if ok = atomic.CompareAndSwapUint64(w, old, new); ok && !h.dirty.test(l) {
			h.capture(l)
		}
	} else {
		// capture's protocol, with the swap inside the lock: the
		// pre-image is kept only if the swap stored.
		t := h.lockPage(l)
		clean := !h.dirty.test(l)
		var pre [LineWords]uint64
		if clean {
			pre = h.readLine(l)
		}
		if ok = atomic.CompareAndSwapUint64(w, old, new); ok && clean {
			h.save(t, l, pre)
			h.dirty.set(l)
		}
		t.mu.Unlock()
	}
	if ok {
		h.fireStore(a)
	}
	return ok
}

// Add atomically adds delta to the word at a and returns the new value.
func (h *Heap) Add(a Addr, delta uint64) uint64 {
	w, l := &h.view[a], a.Line()
	h.stats.stores.Add(l, 1)
	h.touch(l)
	if !h.dirty.test(l) {
		h.capture(l)
	}
	v := atomic.AddUint64(w, delta)
	if !h.dirty.test(l) {
		h.capture(l)
	}
	h.fireStore(a)
	return v
}

// WordPtr returns a pointer to the volatile word at a; the pointer is
// stable for the heap's lifetime, crashes included, and must not outlive
// the heap, which releases the view's mapping when it is collected.
// It lets the HTM simulator address heap words and plain Go words
// uniformly. The pointer is for reading: a store through it would bypass
// the dirty bit and the pre-image it guards, so writers use Store (as
// htm's commit does).
func (h *Heap) WordPtr(a Addr) *uint64 { return &h.view[a] }

// Flush writes the cache line containing a back to the persistent media
// (modeling clwb). Like clwb on the evaluation machine described in the
// paper, it also invalidates the line, so the next access is a miss.
// In ModeDRAM it is a no-op.
func (h *Heap) Flush(a Addr) {
	h.check(a)
	if h.cfg.Mode != ModeADR {
		// DRAM has nothing to persist to; an eADR cache is already in
		// the persistence domain, so flushes are unnecessary and free.
		return
	}
	h.firePersist(PointFlush, a)
	h.stats.flushes.Add(a.Line(), 1)
	if !h.cfg.Latency.Zero() {
		spin(h.cfg.Latency.FlushNS)
	}
	l := a.Line()
	if h.cached.testAndClear(l) {
		h.residentLines.Add(-1)
	}
	if h.cleanLine(l) {
		h.chargeWriteBack(l, false)
	}
}

// FlushRange flushes every line in [a, a+words), coalescing the media-write
// accounting at XPLine granularity the way Optane's on-DIMM buffer does for
// sequential write-back. It is the primitive used by the epoch system's
// background persister.
func (h *Heap) FlushRange(a Addr, words int) {
	if words <= 0 {
		return
	}
	h.check(a)
	h.check(a + Addr(words) - 1)
	if h.cfg.Mode != ModeADR {
		return
	}
	t := flushTally{lastXP: ^uint64(0)}
	defer h.addTally(&t, a.Line())
	for l := a.Line(); l <= (a + Addr(words) - 1).Line(); l++ {
		h.flushLine(l, &t)
	}
}

// Extent is one contiguous word range of an NVM heap, the unit of a
// batched flush.
type Extent struct {
	Addr  Addr
	Words int
}

// FlushExtents flushes every line covered by the extents as one batch,
// issuing at most one flush per cache line — extents sharing a line
// (neighbouring 3-word blocks on one 8-word line) cost a single clwb, the
// coalescing a batching persister gets for free by sorting its work.
// The XPLine media-write accounting is likewise shared across the whole
// call: two extents landing in the same 256-byte XPLine charge a single
// media write, the way Optane's on-DIMM write-combining buffer absorbs
// a burst of write-backs. Safe for concurrent use; when several callers
// (recovery's scan workers) race on one XPLine the media charge may be
// counted once per caller, which keeps media_bytes >= useful_bytes.
func (h *Heap) FlushExtents(exts []Extent) {
	if h.cfg.Mode != ModeADR {
		return
	}
	sc := flushScratchPool.Get().(*flushScratch)
	// Deferred (not inline at the end) because persist hooks may panic
	// mid-flush to simulate a crash; the scratch must still return to
	// the pool on that path, and the tally must still count what landed.
	defer sc.release()
	for _, ex := range exts {
		if ex.Words <= 0 {
			continue
		}
		h.check(ex.Addr)
		h.check(ex.Addr + Addr(ex.Words) - 1)
		for l := ex.Addr.Line(); l <= (ex.Addr + Addr(ex.Words) - 1).Line(); l++ {
			sc.lines = append(sc.lines, l)
		}
	}
	if len(sc.lines) == 0 {
		return
	}
	sortLines(sc.lines, &sc.radix)
	t := flushTally{lastXP: ^uint64(0)}
	defer h.addTally(&t, sc.lines[0])
	prev := ^uint64(0)
	for _, l := range sc.lines {
		if l == prev {
			continue // extents sharing a line cost a single clwb
		}
		prev = l
		h.flushLine(l, &t)
	}
}

// flushScratch is the reusable line buffer behind FlushExtents: covered
// lines are appended, sorted in place, and dedup-iterated. Sorting gives
// flushLine the ascending visit order its lastXP coalescing relies on.
type flushScratch struct {
	lines []uint64
	radix radixCounts
}

var flushScratchPool = sync.Pool{
	New: func() any { return &flushScratch{lines: make([]uint64, 0, 256)} },
}

func (sc *flushScratch) release() {
	sc.lines = sc.lines[:0]
	flushScratchPool.Put(sc)
}

// flushTally is one flush call's counters, added to the heap's sharded
// Stats once per call (addTally) rather than once per line. lastXP is the
// XPLine the call last charged a media write for: the caller seeds it with
// ^uint64(0), which no real XPLine index can equal, and adjacent lines in
// one XPLine share its charge.
type flushTally struct {
	flushes, writebacks, mediaWrites int64
	lastXP                           uint64
}

// addTally adds t to the heap's counters, lane being the call's first line.
// Callers defer it, so a persist hook's panic mid-call still counts every
// line flushed before it.
func (h *Heap) addTally(t *flushTally, lane uint64) {
	h.stats.flushes.Add(lane, t.flushes)
	if t.writebacks != 0 {
		h.stats.lineWritebacks.Add(lane, t.writebacks)
		h.stats.usefulBytes.Add(lane, t.writebacks*LineBytes)
		h.stats.mediaWrites.Add(lane, t.mediaWrites)
		h.stats.mediaBytes.Add(lane, t.mediaWrites*XPLineBytes)
	}
}

// flushLine is the shared per-line body of FlushRange and FlushExtents:
// flush line l (its callers visit lines in ascending order), tallying into
// t.
func (h *Heap) flushLine(l uint64, t *flushTally) {
	h.firePersist(PointFlush, Addr(l*LineWords))
	t.flushes++
	if !h.cfg.Latency.Zero() {
		spin(h.cfg.Latency.FlushNS)
	}
	if h.cached.testAndClear(l) {
		h.residentLines.Add(-1)
	}
	if !h.cleanLine(l) {
		return
	}
	t.writebacks++
	if xp := l * LineWords / XPLineWords; xp != t.lastXP {
		t.lastXP = xp
		t.mediaWrites++
	}
}

// Fence models sfence: it orders prior flushes before subsequent stores.
// In this simulation flushes reach the persistent media synchronously, so
// Fence only charges latency and counts the event.
func (h *Heap) Fence() {
	if h.cfg.Mode != ModeADR {
		return
	}
	h.firePersist(PointFence, 0)
	h.stats.fences.Add(0, 1)
	if !h.cfg.Latency.Zero() {
		spin(h.cfg.Latency.FenceNS)
	}
}

// Persist is the common flush+fence idiom for one word's line.
func (h *Heap) Persist(a Addr) {
	h.Flush(a)
	h.Fence()
}

// CrashOptions controls what happens to dirty lines at the moment of a
// simulated power failure.
type CrashOptions struct {
	// EvictFraction gives the probability that each dirty (unflushed)
	// line happens to have been written back by the cache before the
	// crash. 0 means no stray write-backs; 1 means every dirty line
	// reached the media. Values in between exercise out-of-order
	// write-back, the failure mode BDL recovery must tolerate.
	EvictFraction float64
	// Seed seeds the per-crash RNG; 0 derives one from the crash count.
	Seed uint64
}

// Crash simulates a full-system power failure and restart. All goroutines
// using the heap must have stopped. It visits the dirty lines in ascending
// order. In ModeADR each is lost, its pre-image put back into the view,
// except for a random EvictFraction that the cache happened to write back
// first (each dirty line draws once when EvictFraction > 0); in ModeEADR
// the whole cache drains (persistent cache), every dirty line written
// back. In ModeDRAM the view is zeroed, its pages given back to the
// kernel, and no page is touched. The view is overwritten in place, so
// WordPtrs stay valid. After Crash returns, no line is dirty, no
// pre-image table is left, the volatile view is the persistent image and
// recovery code may run.
func (h *Heap) Crash(opts CrashOptions) {
	n := h.crashes.Add(1)
	seed := opts.Seed
	if seed == 0 {
		seed = uint64(n) * 0x9e3779b97f4a7c15
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xbf58476d1ce4e5b9))
	for l := uint64(0); l < uint64(len(h.view)/LineWords); l++ {
		switch {
		case !h.dirty.test(l):
		case h.cfg.Mode == ModeDRAM:
			h.cleanLine(l) // the view is zeroed below
		case h.cfg.Mode == ModeEADR,
			opts.EvictFraction > 0 && rng.Float64() < opts.EvictFraction:
			h.cleanLine(l)
			h.chargeWriteBack(l, false)
		default:
			h.restoreLine(l)
		}
	}
	for p := range h.pre {
		// No line is dirty now: the pre-image tables go, and the first
		// line dirtied after recovery starts its page's table afresh.
		h.pre[p].Store(nil)
	}
	if h.cfg.Mode == ModeDRAM {
		discard(h.view)
		h.touched.clear()
	}
	h.cached.clear()
	h.residentLines.Store(0)
	// The failure the hook was waiting for has happened; recovery-time
	// flushes must not re-trigger it.
	h.persistHook.Store(nil)
	h.storeHook.Store(nil)
}

// restoreLine is the crash of dirty line l: its pre-image (zero where it
// saved none) goes back into the view, in place, and the line is clean.
func (h *Heap) restoreLine(l uint64) {
	t := h.pre[l*LineWords/pageWords].Load()
	t.mu.Lock()
	var w [LineWords]uint64
	if p := t.find(pageLine(l)); p != nil {
		w = *p
	}
	dst := h.view[l*LineWords:][:LineWords]
	for i := range dst {
		atomic.StoreUint64(&dst[i], w[i])
	}
	h.cleanLocked(t, l)
	t.mu.Unlock()
}

// PersistedLoad reads the word at a from the persistent image, bypassing
// the volatile view: a dirty line's pre-image (zero where it saved none),
// a clean line's view. Intended for tests and debugging.
func (h *Heap) PersistedLoad(a Addr) uint64 {
	h.check(a)
	t := h.pre[a/pageWords].Load()
	if t == nil {
		return atomic.LoadUint64(&h.view[a]) // no table, so no line of the page is dirty
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := a.Line()
	if !h.dirty.test(l) {
		return atomic.LoadUint64(&h.view[a])
	}
	if w := t.find(pageLine(l)); w != nil {
		return w[a%LineWords]
	}
	return 0
}

// DirtyLine reports whether the line containing a holds volatile data that
// has not reached the persistent media. Intended for tests.
func (h *Heap) DirtyLine(a Addr) bool { return h.dirty.test(a.Line()) }
