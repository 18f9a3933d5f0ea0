// Package spash implements the paper's third case study (Sec. 4.3): the
// Spash persistent hash index of Zhang et al. (ICDE'24), designed for
// machines with persistent caches (Intel eADR), and BD-Spash, its
// back-port to conventional volatile-cache (ADR) machines via buffered
// durability.
//
// Structure (both modes): an extendible-hashing directory and segments in
// DRAM; KV pairs in NVM blocks referenced from bucket slots (fingerprint
// + address packed in one word). Every operation is one body, attempted as
// a hardware transaction and run as a slow-path session (a mode of the
// same htm.Tx) after repeated aborts; segment splits and directory
// doubling run as sessions that lock a split-barrier word every
// transaction reads, aborting and excluding them for the split's duration.
// A DRAM hotspot detector tracks per-bucket access frequency:
//
//   - Spash (eADR heap): stores are durable at the point of visibility;
//     flushes are pure performance hints. Cold blocks are proactively
//     written back to free cache space, hot blocks stay cached.
//   - BD-Spash (ADR heap + epoch system): blocks follow the Listing-1
//     discipline (preallocation, epoch stamping, OldSeeNew restarts,
//     PTrack/PRetire after commit). Large cold blocks are additionally
//     flushed immediately to spare the epoch-close burst; small and hot
//     data are left to the epoch system, which batches them naturally.
//     If the heap reports a persistent cache, "the epoch system
//     automatically disables itself" (paper) — batching degenerates to
//     cheap bookkeeping.
//
// Deviations from the original (documented in DESIGN.md): background
// segment movers are replaced by splits completed synchronously behind the
// split barrier, and small cold writes are not coalesced into thread-local
// chunks — the paper's own BD-Spash makes the same choice (Sec. 4.3).
package spash

import (
	"sync/atomic"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/palloc"
)

// Mode selects the durability strategy.
type Mode int

const (
	// ModeEADR is Spash on a persistent-cache machine.
	ModeEADR Mode = iota
	// ModeBD is BD-Spash: buffered durability on a volatile cache.
	ModeBD
)

func (m Mode) String() string {
	if m == ModeEADR {
		return "Spash"
	}
	return "BD-Spash"
}

// BlockTag marks this table's KV blocks.
const BlockTag uint8 = 0x5B

const (
	bucketsPerSeg  = 8
	slotsPerBucket = 8
	segSlots       = bucketsPerSeg * slotsPerBucket
	maxRetries     = 32

	// splitCode aborts a transaction whose bucket is full; the operation
	// then splits the segment on the slow path and retries.
	splitCode uint8 = 0xB5
	// eadrEpoch is the constant epoch stamped into eADR-mode blocks when
	// they are published (any value other than InvalidEpoch works: the
	// stamp only distinguishes linked blocks from preallocated garbage).
	eadrEpoch uint64 = 1
)

// Config describes a table.
type Config struct {
	Mode Mode
	// Sys is the epoch system (ModeBD). Its heap holds the KV blocks.
	Sys *epoch.System
	// Heap is the eADR heap (ModeEADR).
	Heap *nvm.Heap
	// TM is the transactional memory unit. Required.
	TM *htm.TM
	// InitialDepth is the starting directory depth (2^depth entries).
	InitialDepth int
	// ValueWords is the value payload size in words (default 1). Larger
	// values exercise the large-cold immediate-flush path.
	ValueWords int
	// HotThreshold is the access count above which a bucket counts as
	// hot (default 4).
	HotThreshold uint32
}

func (c Config) withDefaults() Config {
	if c.InitialDepth == 0 {
		c.InitialDepth = 4
	}
	if c.ValueWords == 0 {
		c.ValueWords = 1
	}
	if c.HotThreshold == 0 {
		c.HotThreshold = 4
	}
	return c
}

// segment is a DRAM segment: packed fingerprint|address slots plus the
// hotspot detector's counters (updated outside transactions).
type segment struct {
	localDepth uint64
	slots      [segSlots]uint64
	counters   [bucketsPerSeg]atomic.Uint32
	accesses   [bucketsPerSeg]atomic.Uint32
}

// Stats reports structural and hotspot activity.
type Stats struct {
	Splits      int64
	Doublings   int64
	ColdFlushes int64
	HotSkips    int64
}

// Table is a Spash/BD-Spash hash index.
type Table struct {
	cfg   Config
	tm    *htm.TM
	sys   *epoch.System     // ModeBD
	alloc *palloc.Allocator // ModeEADR
	heap  *nvm.Heap         // heap holding KV blocks

	dir         atomic.Pointer[[]uint64] // segment indices
	globalDepth atomic.Uint64
	segs        atomic.Pointer[[]*segment] // append-only behind the split barrier

	// Split barriers, each on its own cache line. ver is read by every
	// transaction: a split locks and bumps it through its session,
	// excluding and aborting all transactions for exactly the split's
	// duration. fbGate is locked first by every session, serializing
	// slow-path operations against each other and against splits (which
	// mutate dir/segs natively) without ever conflicting with
	// transactions. See enter.
	_      [7]uint64
	ver    uint64
	_      [7]uint64
	fbGate uint64
	_      [7]uint64

	count int64 // atomic
	stats struct {
		splits, doublings, coldFlushes, hotSkips atomic.Int64
	}

	// removals guards the empty-slot insert path against acting on an
	// absence created by a newer-epoch removal (ModeBD only; see
	// epoch.RemovalStamps).
	removals epoch.RemovalStamps

	obs *obs.Recorder

	perW []spashWState
}

// SetObs attaches a telemetry recorder: every Get/Insert/Remove records
// its latency on it. Attach before the table is shared between
// goroutines; nil disables recording.
func (t *Table) SetObs(r *obs.Recorder) { t.obs = r }

type spashWState struct {
	prealloc nvm.Addr
	_        [7]uint64
}

// New creates a table. ModeBD requires cfg.Sys; ModeEADR requires
// cfg.Heap (in nvm.ModeEADR).
func New(cfg Config) *Table {
	cfg = cfg.withDefaults()
	if cfg.TM == nil {
		panic("spash: TM required")
	}
	t := &Table{cfg: cfg, tm: cfg.TM, perW: make([]spashWState, 512)}
	switch cfg.Mode {
	case ModeBD:
		if cfg.Sys == nil {
			panic("spash: ModeBD requires an epoch system")
		}
		t.sys = cfg.Sys
		t.heap = cfg.Sys.Heap()
	case ModeEADR:
		if cfg.Heap == nil {
			panic("spash: ModeEADR requires a heap")
		}
		if cfg.Heap.Mode() != nvm.ModeEADR {
			panic("spash: ModeEADR requires an eADR heap")
		}
		t.heap = cfg.Heap
		t.alloc = palloc.New(cfg.Heap)
	}
	nseg := 1 << cfg.InitialDepth
	segs := make([]*segment, nseg)
	dir := make([]uint64, nseg)
	for i := range segs {
		segs[i] = &segment{localDepth: uint64(cfg.InitialDepth)}
		dir[i] = uint64(i)
	}
	t.segs.Store(&segs)
	t.dir.Store(&dir)
	t.globalDepth.Store(uint64(cfg.InitialDepth))
	return t
}

// Mode returns the table's mode.
func (t *Table) Mode() Mode { return t.cfg.Mode }

// Len returns the number of keys.
func (t *Table) Len() int { return int(atomic.LoadInt64(&t.count)) }

// Allocator returns the eADR-mode block allocator (nil in ModeBD, whose
// blocks belong to the epoch system's allocator).
func (t *Table) Allocator() *palloc.Allocator { return t.alloc }

// Stats returns structural/hotspot counters.
func (t *Table) Stats() Stats {
	return Stats{
		Splits:      t.stats.splits.Load(),
		Doublings:   t.stats.doublings.Load(),
		ColdFlushes: t.stats.coldFlushes.Load(),
		HotSkips:    t.stats.hotSkips.Load(),
	}
}

func hash64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	return k ^ k>>33
}

func pack(h uint64, addr nvm.Addr) uint64 { return h>>56<<56 | uint64(addr) }
func unpackAddr(s uint64) nvm.Addr        { return nvm.Addr(s & (1<<48 - 1)) }

// locate returns the segment and bucket for a hash under the current
// directory. The pointers are read non-transactionally; structural
// changes happen only on the slow path behind the split barrier (the ver
// word — see enter), so a transaction that raced a split cannot commit.
//
// The loads run in the reverse of splitLocked's publication order — depth,
// then directory, then the entry (atomically: a split rewrites entries in
// place), then the segment table — so whatever mix of old and new a racing
// reader sees indexes in range: a depth is published after the directory
// that is long enough for it, an entry after the segment table that holds
// its segment.
func (t *Table) locate(h uint64) (seg *segment, bucket int) {
	gd := t.globalDepth.Load()
	dir := *t.dir.Load()
	idx := atomic.LoadUint64(&dir[h&(1<<gd-1)])
	segs := *t.segs.Load()
	return segs[idx], int(h >> 56 & (bucketsPerSeg - 1))
}

// touchBucket feeds the hotspot detector and reports whether the bucket
// is currently hot. Counters decay by halving every 64 accesses.
func (t *Table) touchBucket(seg *segment, bucket int) bool {
	c := seg.counters[bucket].Add(1)
	if seg.accesses[bucket].Add(1)%64 == 0 {
		seg.counters[bucket].Store(c / 2)
	}
	return c >= t.cfg.HotThreshold
}

// blockWords is the total block size of this table's KV class.
func (t *Table) blockWords() int {
	return palloc.ClassWords(palloc.ClassFor(1 + t.cfg.ValueWords))
}

// largeBlock reports whether blocks meet the XPLine threshold for
// immediate cold write-back in ModeBD.
func (t *Table) largeBlock() bool { return t.blockWords() >= nvm.XPLineWords }

// maybeColdFlush applies the hotspot policy to a block after its
// transaction committed. Only XPLine-sized cold data is written back
// immediately — that is the bandwidth-efficient case; small cold writes
// are coalesced by Spash's thread-local chunks in the original (a
// mechanism this port omits, like the paper's own BD-Spash) and by the
// epoch system's natural batching in ModeBD.
func (t *Table) maybeColdFlush(blk nvm.Addr, hot bool) {
	if hot {
		t.stats.hotSkips.Add(1)
		return
	}
	if t.largeBlock() {
		t.heap.FlushRange(blk, t.blockWords())
		t.stats.coldFlushes.Add(1)
	}
}

// --- block helpers (raw addresses; both modes) ------------------------------

func blockKeyAddr(b nvm.Addr) nvm.Addr   { return palloc.Payload(b) }
func blockValueAddr(b nvm.Addr) nvm.Addr { return palloc.Payload(b) + 1 }

// initBlock initializes a not-yet-visible block and invalidates its epoch.
func (t *Table) initBlock(b nvm.Addr, k, v uint64) {
	hdr := palloc.UnpackHeader(t.heap.Load(b))
	hdr.Epoch = palloc.InvalidEpoch
	t.heap.Store(b, hdr.Pack())
	t.heap.Store(blockKeyAddr(b), k)
	for i := 0; i < t.cfg.ValueWords; i++ {
		t.heap.Store(blockValueAddr(b)+nvm.Addr(i), v)
	}
}

// stampTx stamps the block's epoch inside the operation's body.
func (t *Table) stampTx(tx *htm.Tx, b nvm.Addr, e uint64) {
	hdr := tx.LoadAddr(t.heap, b)
	hdr = hdr&^(palloc.InvalidEpoch) | e
	tx.StoreAddr(t.heap, b, hdr)
}

func (t *Table) epochTx(tx *htm.Tx, b nvm.Addr) uint64 {
	return tx.LoadAddr(t.heap, b) & palloc.InvalidEpoch
}

// enter orders a body against structural changes; it is the one place the
// two modes differ. A transaction subscribes to the split barrier, which a
// split locks and bumps for its duration. A session takes the gate
// instead: locking ver's line would abort every concurrent transaction,
// and the gate already excludes splits (and other sessions).
func (t *Table) enter(tx *htm.Tx) {
	if tx.InSession() {
		tx.Load(&t.fbGate)
	} else {
		tx.Load(&t.ver)
	}
}
