// Package nvm simulates byte-addressable non-volatile memory fronted by a
// volatile CPU cache, as seen by software on an ADR (asynchronous DRAM
// refresh) machine with Intel Optane DC persistent memory.
//
// The simulation is word-oriented: the heap is an array of 64-bit words,
// grouped into 64-byte cache lines and 256-byte "XPLines" (the internal
// access granularity of first-generation Optane media).
//
// Two copies of memory are maintained:
//
//   - the volatile view (what the CPU sees through its cache), a flat
//     array of words, and
//   - the persistent image (what has actually reached the NVM media), a
//     table of 4096-word pages. A page is materialised by the first
//     write-back that lands in it; a page nothing was ever written back
//     to does not exist and reads as zero — the state the media started
//     in — so a heap costs one copy of its size plus one page per 32 KiB
//     of it that was ever persisted.
//
// Stores update only the volatile view and mark the containing cache line
// dirty. A line reaches the persistent image when it is explicitly flushed
// (Flush, modeling clwb/clflushopt) or when the simulated cache evicts it in
// an unpredictable order (modeling capacity write-back). Crash discards the
// volatile view and resurrects the persistent image (zeroes where the
// image has no page), so software layered on this package observes exactly
// the post-crash states that make persistent programming hard: the gap
// between point of visibility and point of persistence, and out-of-order
// line write-back.
//
// Three modes are supported:
//
//   - ModeADR: volatile cache; flush+fence required for durability.
//   - ModeEADR: persistent cache (Intel eADR); every store is durable at the
//     point of visibility, flushes are performance hints only.
//   - ModeDRAM: plain DRAM; nothing survives a crash (the image's pages
//     are dropped wholesale). Used for transient baselines so that all
//     structures share one memory substrate.
//
// An optional latency model charges calibrated busy-wait delays for cache
// misses, write-backs, flushes and fences, reproducing the ~3x read and
// ~10x write latency gap between Optane and DRAM that the paper's
// evaluation depends on.
package nvm

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"sync/atomic"

	"bdhtm/internal/obs"
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
	cfg   Config
	words []uint64                  // volatile view (CPU perspective)
	pimg  []atomic.Pointer[imgPage] // persistent image (media perspective), by page

	dirty  bitset // lines with volatile contents newer than the media
	cached bitset // lines currently resident in the simulated cache

	residentLines atomic.Int64 // approximate count of cached lines

	evictMu  sync.Mutex
	evictRNG *rand.Rand

	persistHook atomic.Pointer[func(PersistPoint, Addr)]
	storeHook   atomic.Pointer[func(Addr)]

	stats   Stats
	obs     *obs.Recorder
	crashes atomic.Int64
}

// SetObs attaches a telemetry recorder: flushes, fences, line write-backs,
// and crashes are mirrored onto its counters (and its tracer, when one is
// active). A nil recorder disables mirroring. Attach before the heap is
// shared between goroutines. Word loads and stores are deliberately not
// mirrored — they are orders of magnitude hotter than persist events and
// already counted by Stats.
func (h *Heap) SetObs(r *obs.Recorder) { h.obs = r }

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
// the zero state already persistent.
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
	h := &Heap{
		cfg:      cfg,
		words:    make([]uint64, cfg.Words),
		pimg:     make([]atomic.Pointer[imgPage], (cfg.Words+pageWords-1)/pageWords),
		dirty:    newBitset(lines),
		cached:   newBitset(lines),
		evictRNG: rand.New(rand.NewPCG(seed, seed^0xda942042e4dd58b5)),
	}
	if !cfg.Latency.Zero() {
		calibrateSpin()
	}
	return h
}

// Words returns the heap size in words.
func (h *Heap) Words() int { return len(h.words) }

// Mode returns the durability mode of the heap.
func (h *Heap) Mode() Mode { return h.cfg.Mode }

// Stats returns a snapshot of the heap's event counters.
func (h *Heap) Stats() StatsSnapshot { return h.stats.snapshot() }

// Crashes returns how many simulated crashes this heap has been through.
func (h *Heap) Crashes() int64 { return h.crashes.Load() }

func (h *Heap) check(a Addr) {
	if uint64(a) >= uint64(len(h.words)) {
		panic(fmt.Sprintf("nvm: address %d out of range (heap %d words)", a, len(h.words)))
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
	lines := uint64(len(h.words) / LineWords)
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
			if h.dirty.testAndClear(l) {
				h.firePersist(PointWriteBack, Addr(l*LineWords))
				h.writeBackLine(l, true)
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

// pageWords is the granularity at which the persistent image is
// materialised: 4096 words, 32 KiB — one palloc slab, a whole number of
// lines and XPLines.
const pageWords = 4096

type imgPage [pageWords]uint64

// imagePage returns the persistent-image page holding word a, creating it
// (zeroed, like the media it stands for) on the first write-back into it.
// Flusher shards and capacity evictions race here; the CAS picks one page
// and every racer writes its own lines into the winner.
func (h *Heap) imagePage(a uint64) *imgPage {
	slot := &h.pimg[a/pageWords]
	if pg := slot.Load(); pg != nil {
		return pg
	}
	slot.CompareAndSwap(nil, new(imgPage))
	return slot.Load()
}

// persistLine copies line l from the volatile view to the persistent
// image: the one place a word reaches the media.
func (h *Heap) persistLine(l uint64) {
	base := l * LineWords
	src := h.words[base : base+LineWords]
	dst := h.imagePage(base)[base%pageWords:][:LineWords]
	for i := range src {
		atomic.StoreUint64(&dst[i], atomic.LoadUint64(&src[i]))
	}
}

// writeBackLine copies one cache line from the volatile view to the
// persistent image and charges media-write accounting.
func (h *Heap) writeBackLine(l uint64, eviction bool) {
	base := l * LineWords
	h.persistLine(l)
	h.stats.lineWritebacks.Add(l, 1)
	if h.obs != nil {
		var ev uint64
		if eviction {
			ev = 1
		}
		h.obs.Hit(obs.MWriteBacks, obs.EvWriteBack, base, ev)
	}
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
	h.check(a)
	l := a.Line()
	h.stats.loads.Add(l, 1)
	h.touch(l)
	return atomic.LoadUint64(&h.words[a])
}

// Store atomically writes the word at a in the volatile view and marks the
// containing line dirty. The write is not durable until the line is flushed
// or evicted (ModeADR); in ModeEADR it is durable immediately.
func (h *Heap) Store(a Addr, v uint64) {
	h.check(a)
	l := a.Line()
	h.stats.stores.Add(l, 1)
	h.touch(l)
	atomic.StoreUint64(&h.words[a], v)
	h.dirty.set(l)
	h.fireStore(a)
}

// CompareAndSwap atomically replaces the word at a if it equals old.
func (h *Heap) CompareAndSwap(a Addr, old, new uint64) bool {
	h.check(a)
	l := a.Line()
	h.stats.stores.Add(l, 1)
	h.touch(l)
	ok := atomic.CompareAndSwapUint64(&h.words[a], old, new)
	if ok {
		h.dirty.set(l)
		h.fireStore(a)
	}
	return ok
}

// Add atomically adds delta to the word at a and returns the new value.
func (h *Heap) Add(a Addr, delta uint64) uint64 {
	h.check(a)
	l := a.Line()
	h.stats.stores.Add(l, 1)
	h.touch(l)
	v := atomic.AddUint64(&h.words[a], delta)
	h.dirty.set(l)
	h.fireStore(a)
	return v
}

// WordPtr returns a stable pointer to the volatile word at a. It allows
// CAS-based algorithms (and the HTM simulator) to address heap words and
// plain Go words uniformly. Callers that store through the pointer must
// call MarkDirty to preserve persistence accounting.
func (h *Heap) WordPtr(a Addr) *uint64 {
	h.check(a)
	return &h.words[a]
}

// MarkDirty records that the line containing a has been modified through
// a WordPtr and is not yet durable.
func (h *Heap) MarkDirty(a Addr) {
	h.check(a)
	h.touch(a.Line())
	h.dirty.set(a.Line())
}

// Flush writes the cache line containing a back to the persistent image
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
	if h.obs != nil {
		h.obs.Hit(obs.MFlushes, obs.EvFlush, uint64(a), 0)
	}
	if !h.cfg.Latency.Zero() {
		spin(h.cfg.Latency.FlushNS)
	}
	l := a.Line()
	if h.cached.testAndClear(l) {
		h.residentLines.Add(-1)
	}
	if h.dirty.testAndClear(l) {
		h.writeBackLine(l, false)
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
	lastXP := ^uint64(0)
	h.flushLines(a.Line(), (a + Addr(words) - 1).Line(), &lastXP)
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
// a burst of write-backs. Safe for concurrent use; when several flusher
// shards race on one XPLine the media charge may be counted once per
// shard, which keeps media_bytes >= useful_bytes.
func (h *Heap) FlushExtents(exts []Extent) {
	if h.cfg.Mode != ModeADR {
		return
	}
	sc := flushScratchPool.Get().(*flushScratch)
	// Deferred (not inline at the end) because persist hooks may panic
	// mid-flush to simulate a crash; the scratch must still return to
	// the pool on that path.
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
	slices.Sort(sc.lines)
	lastXP := ^uint64(0)
	prev := ^uint64(0)
	for _, l := range sc.lines {
		if l == prev {
			continue // extents sharing a line cost a single clwb
		}
		prev = l
		h.flushLines(l, l, &lastXP)
	}
}

// flushScratch is the reusable line buffer behind FlushExtents: covered
// lines are appended, sorted, and dedup-iterated, replacing the two
// per-call maps the batched flush path used to allocate. Sorting also
// gives flushLines the ascending visit order its lastXP coalescing
// relies on.
type flushScratch struct {
	lines []uint64
}

var flushScratchPool = sync.Pool{
	New: func() any { return &flushScratch{lines: make([]uint64, 0, 256)} },
}

func (sc *flushScratch) release() {
	sc.lines = sc.lines[:0]
	flushScratchPool.Put(sc)
}

// flushLines is the shared body of FlushRange and FlushExtents: flush
// lines [first, last] in ascending order, coalescing XPLine media-write
// accounting through lastXP (callers seed it with ^uint64(0), which no
// real XPLine index can equal; it survives across flushLines calls so a
// whole FlushExtents batch shares one coalescing window).
func (h *Heap) flushLines(first, last uint64, lastXP *uint64) {
	for l := first; l <= last; l++ {
		h.firePersist(PointFlush, Addr(l*LineWords))
		h.stats.flushes.Add(l, 1)
		if h.obs != nil {
			h.obs.Hit(obs.MFlushes, obs.EvFlush, l*LineWords, 0)
		}
		if !h.cfg.Latency.Zero() {
			spin(h.cfg.Latency.FlushNS)
		}
		if h.cached.testAndClear(l) {
			h.residentLines.Add(-1)
		}
		if !h.dirty.testAndClear(l) {
			continue
		}
		base := l * LineWords
		h.persistLine(l)
		h.stats.lineWritebacks.Add(l, 1)
		if h.obs != nil {
			h.obs.Hit(obs.MWriteBacks, obs.EvWriteBack, base, 0)
		}
		h.stats.usefulBytes.Add(l, LineBytes)
		xp := base / XPLineWords
		if xp != *lastXP {
			*lastXP = xp
			h.stats.mediaWrites.Add(l, 1)
			h.stats.mediaBytes.Add(l, XPLineBytes)
		}
	}
}

// Fence models sfence: it orders prior flushes before subsequent stores.
// In this simulation flushes reach the persistent image synchronously, so
// Fence only charges latency and counts the event.
func (h *Heap) Fence() {
	if h.cfg.Mode != ModeADR {
		return
	}
	h.firePersist(PointFence, 0)
	h.stats.fences.Add(0, 1)
	if h.obs != nil {
		h.obs.Hit(obs.MFences, obs.EvFence, 0, 0)
	}
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
// using the heap must have stopped. In ModeADR, dirty lines are lost except
// for a random EvictFraction that the cache happened to write back first.
// In ModeEADR the whole cache drains (persistent cache). In ModeDRAM the
// heap is zeroed. After Crash returns, the volatile view equals the
// persistent image and recovery code may run.
func (h *Heap) Crash(opts CrashOptions) {
	n := h.crashes.Add(1)
	if h.obs != nil {
		h.obs.Hit(obs.MCrashes, obs.EvCrash, uint64(n), 0)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = uint64(n) * 0x9e3779b97f4a7c15
	}
	rng := rand.New(rand.NewPCG(seed, seed^0xbf58476d1ce4e5b9))
	lines := uint64(len(h.words) / LineWords)
	switch h.cfg.Mode {
	case ModeDRAM:
		for i := range h.words {
			atomic.StoreUint64(&h.words[i], 0)
		}
		for i := range h.pimg {
			h.pimg[i].Store(nil)
		}
	case ModeEADR:
		for l := uint64(0); l < lines; l++ {
			if h.dirty.testAndClear(l) {
				h.writeBackLine(l, false)
			}
		}
		h.restoreView()
	case ModeADR:
		for l := uint64(0); l < lines; l++ {
			if !h.dirty.testAndClear(l) {
				continue
			}
			if opts.EvictFraction > 0 && rng.Float64() < opts.EvictFraction {
				h.writeBackLine(l, false)
			}
		}
		h.restoreView()
	}
	h.cached.clear()
	h.dirty.clear()
	h.residentLines.Store(0)
	// The failure the hook was waiting for has happened; recovery-time
	// flushes must not re-trigger it.
	h.persistHook.Store(nil)
	h.storeHook.Store(nil)
}

// PersistedLoad reads the word at a from the persistent image, bypassing
// the volatile view. Intended for tests and debugging.
func (h *Heap) PersistedLoad(a Addr) uint64 {
	h.check(a)
	pg := h.pimg[a/pageWords].Load()
	if pg == nil {
		return 0 // nothing in this page was ever written back
	}
	return atomic.LoadUint64(&pg[a%pageWords])
}

// DirtyLine reports whether the line containing a holds volatile data that
// has not reached the persistent image. Intended for tests.
func (h *Heap) DirtyLine(a Addr) bool { return h.dirty.test(a.Line()) }

// restoreView overwrites the volatile view with the persistent image, the
// restart half of Crash. A page the image never materialised is zero.
func (h *Heap) restoreView() {
	for p := range h.pimg {
		view := h.words[p*pageWords : min((p+1)*pageWords, len(h.words))]
		pg := h.pimg[p].Load()
		for i := range view {
			var v uint64
			if pg != nil {
				v = atomic.LoadUint64(&pg[i])
			}
			atomic.StoreUint64(&view[i], v)
		}
	}
}
