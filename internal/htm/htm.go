// Package htm simulates best-effort hardware transactional memory (Intel
// TSX-style) in software.
//
// Go exposes no HTM intrinsics, so this package provides a TL2-style
// software transactional memory engineered to reproduce the *programming
// model and failure modes* of commodity best-effort HTM rather than its raw
// speed:
//
//   - Conflicts are detected at 64-byte cache-line granularity, via a
//     hashed table of versioned locks, so false sharing aborts transactions
//     exactly as it does on real hardware.
//   - Read and write sets have bounded capacity (modeling L1-limited
//     speculative state); exceeding them aborts with CauseCapacity.
//   - Transactions may abort spuriously (timer interrupts, faults) and, to
//     reproduce the anomaly in Fig. 2 of the paper, with CauseMemType at a
//     configurable rate unless the attempt was preceded by a
//     non-transactional "pre-walk".
//   - Explicit aborts carry an 8-bit user code, like _xabort.
//   - Persist operations (clwb/sfence) are incompatible with transactions:
//     Tx.Flush and Tx.Fence always abort with CausePersistOp. This is the
//     central incompatibility the paper resolves with buffered durability.
//   - The slow path is a session, and a session is a mode of Tx: the same
//     body runs under two-phase locking over the versioned-lock table
//     commits use, one slot per touched cache line, with writes buffered
//     until the session finishes (session.go). A transaction conflicts with
//     a session only where their line sets overlap, and non-transactional
//     writes (DirectStore) are likewise visible to the conflict-detection
//     mechanism. Both modes run on the TM's pooled Tx, so neither allocates
//     in steady state.
//   - Run is the one retry-then-session driver: an operation hands it one
//     body, which it attempts as a transaction and then runs as a session.
//   - The retry budget is the TM's (budget): Run asks it how many
//     attempts an operation may spend before its session — maxRetries,
//     the same for every structure, or 1 on a dead fast path. The TM counts
//     consecutive attempts, TM-wide, that ended in an abort a retry does
//     not cure — spurious, memtype, capacity — and any commit clears the
//     count. Conflict and explicit aborts leave it alone: they are caused
//     by other operations making progress or by the caller's own logic,
//     and say nothing about whether the fast path works. Once the count
//     reaches four budgets' worth the fast path is taken for dead and
//     budget answers 1: every operation still probes it once, and the
//     first commit restores the full budget. It takes 4·maxRetries consecutive
//     such aborts with no commit anywhere on the TM to get there, so
//     injection rates of a few percent never do (0.05^128).
//
// Transactions address ordinary Go words (*uint64) and simulated NVM words
// (nvm.Heap + nvm.Addr) uniformly; speculative writes are buffered in the
// write set and reach memory only on commit, so — as with real HTM — no
// speculative state can ever leak to the persistent image of an nvm.Heap.
package htm

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// obs.Outcome mirrors AbortCause value-for-value so the two packages stay
// decoupled; these indices only compile while the enums line up.
var (
	_ = [1]struct{}{}[int(CausePersistOp)-int(obs.OutPersistOp)]
	_ = [1]struct{}{}[int(numCauses)-int(obs.NumOutcomes)]
)

// AbortCause classifies why a transaction attempt failed.
type AbortCause int

const (
	// CauseNone means the attempt committed.
	CauseNone AbortCause = iota
	// CauseConflict: another transaction, a session or a direct store
	// touched a line in this transaction's read or write set.
	CauseConflict
	// CauseCapacity: the read or write set exceeded the configured
	// speculative capacity.
	CauseCapacity
	// CauseExplicit: the transaction called Abort with a user code.
	CauseExplicit
	// CauseSpurious: a transient event (interrupt, fault) killed the
	// transaction.
	CauseSpurious
	// CauseMemType: the "incompatible memory type" anomaly observed at
	// low thread counts in the paper's Fig. 2.
	CauseMemType
	// CausePersistOp: the transaction attempted a flush or fence, which
	// best-effort HTM cannot execute speculatively.
	CausePersistOp

	numCauses
)

func (c AbortCause) String() string {
	switch c {
	case CauseNone:
		return "committed"
	case CauseConflict:
		return "conflict"
	case CauseCapacity:
		return "capacity"
	case CauseExplicit:
		return "explicit"
	case CauseSpurious:
		return "spurious"
	case CauseMemType:
		return "memtype"
	case CausePersistOp:
		return "persist-op"
	default:
		return fmt.Sprintf("AbortCause(%d)", int(c))
	}
}

// Result reports the outcome of one transaction attempt.
type Result struct {
	Committed bool
	Cause     AbortCause
	// Code carries the user abort code when Cause == CauseExplicit.
	Code uint8
}

// Config tunes the simulated HTM.
type Config struct {
	// TableBits sets the versioned-lock table to 1<<TableBits slots
	// (default 16). Smaller tables increase false conflicts.
	TableBits int
	// MaxWriteLines bounds the write set in cache lines (default 512,
	// i.e. 32 KiB of speculative stores, an L1-sized budget).
	MaxWriteLines int
	// MaxReadLines bounds the read set in cache lines (default 8192,
	// modeling the L1 + bloom-filter read tracking of real parts).
	MaxReadLines int
	// SpuriousRate is the probability that an attempt is killed by a
	// transient event. Default 0.
	SpuriousRate float64
	// MemTypeRate is the probability that an attempt not preceded by a
	// pre-walk aborts with CauseMemType. Default 0.
	MemTypeRate float64
	// PreWalkResidualRate is the MemType rate that remains after a
	// pre-walk (the paper's mitigation reduced aborts to ~5%).
	PreWalkResidualRate float64
	// Seed seeds the abort-injection RNG stream. 0 selects a fixed
	// default, so injection is deterministic either way; fuzzers vary the
	// seed per round to explore different abort interleavings.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.TableBits == 0 {
		c.TableBits = 16
	}
	if c.MaxWriteLines == 0 {
		c.MaxWriteLines = 512
	}
	if c.MaxReadLines == 0 {
		c.MaxReadLines = 8192
	}
	return c
}

// TM is a simulated hardware-transactional-memory unit. One TM is shared by
// all threads operating on the same data; independent structures may use
// independent TMs.
type TM struct {
	cfg   Config
	mask  uint64
	clock atomic.Uint64
	table []atomic.Uint64 // slot: version<<1 | locked; locked slots hold owner<<1|1
	txIDs atomic.Uint64
	rng   atomic.Uint64 // cheap splitmix state for abort injection

	// backoffRNG feeds retry-backoff jitter. It is deliberately separate
	// from rng: backoff frequency depends on scheduling, so drawing
	// jitter from the injection stream would shift the deterministic
	// abort schedule that seeded fuzz replays depend on.
	backoffRNG atomic.Uint64

	// held counts outstanding versioned-lock windows opened by commits
	// and direct stores, incremented before the first slot CAS and
	// decremented after release, so drainCommits is one counter read
	// instead of a full table scan.
	held atomic.Int64

	// fbMu serializes sessions that failed to make progress with bounded
	// waiting (see RunSession's escalation).
	fbMu sync.Mutex

	// futile counts consecutive attempts that ended in an abort retrying
	// cannot cure; see budget.
	futile atomic.Int64

	stats Stats
	obs   *obs.Recorder

	pool sync.Pool // *Tx
}

// New creates a TM with the given configuration.
func New(cfg Config) *TM {
	cfg = cfg.withDefaults()
	tm := &TM{
		cfg:   cfg,
		mask:  (1 << cfg.TableBits) - 1,
		table: make([]atomic.Uint64, 1<<cfg.TableBits),
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x853c49e6748fea9b
	}
	tm.rng.Store(seed)
	// Table sizes derive from the configured line limits so those limits
	// are the real abort thresholds. writeIdx is keyed per word, not per
	// line: a full write set can hold LineWords distinct words per line.
	readCap := setCapacity(cfg.MaxReadLines)
	wordCap := setCapacity(cfg.MaxWriteLines * nvm.LineWords)
	wlineCap := setCapacity(cfg.MaxWriteLines)
	tm.pool.New = func() any {
		return &Tx{
			tm:       tm,
			reads:    newKVSet(readCap),
			writeIdx: newKVSet(wordCap),
			wlines:   newKVSet(wlineCap),
		}
	}
	return tm
}

// Default returns a TM with default configuration and no abort injection.
func Default() *TM { return New(Config{}) }

// Stats returns a snapshot of commit/abort counters.
func (tm *TM) Stats() StatsSnapshot { return tm.stats.snapshot() }

// SetObs attaches a telemetry recorder: every subsequent attempt's latency
// and outcome are recorded on it. A nil recorder disables recording; the
// only cost that remains on the attempt path is one pointer test. Attach
// before the TM is shared between goroutines.
func (tm *TM) SetObs(r *obs.Recorder) { tm.obs = r }

func lineKey(p *uint64) uint64 {
	return uint64(uintptr(unsafe.Pointer(p))) >> 6
}

func (tm *TM) slotIdx(lk uint64) uint64 {
	return (lk * 0x9e3779b97f4a7c15) >> (64 - uint(tm.cfg.TableBits))
}

func (tm *TM) nextRand() uint64 {
	// splitmix64 over an atomic counter: racy increments are harmless for
	// injection purposes.
	z := tm.rng.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (tm *TM) chance(rate float64) bool {
	if rate <= 0 {
		return false
	}
	return float64(tm.nextRand()>>11)/float64(1<<53) < rate
}

type writeEntry struct {
	p    *uint64
	val  uint64
	heap *nvm.Heap // nil for plain DRAM words
	addr nvm.Addr
}

// apply performs the buffered write; heap words go through the heap so
// dirty-line tracking stays correct.
func (we *writeEntry) apply() {
	if we.heap != nil {
		we.heap.Store(we.addr, we.val)
	} else {
		atomic.StoreUint64(we.p, we.val)
	}
}

// Tx is one execution of an operation's body: a transaction attempt, or —
// with sess set — a slow-path session (session.go). A Tx is only valid
// inside the body function it is passed to and must not escape it.
type Tx struct {
	tm       *TM
	sess     bool   // session mode: accesses lock lines instead of tracking sets
	owner    uint64 // slot word while holding: id<<1|1, fbOwnerBit set in a session
	rv       uint64
	reads    kvSet // line key -> observed slot version word
	writes   []writeEntry
	writeIdx kvSet // word pointer -> index+1 into writes
	wlines   kvSet // distinct write lines (capacity accounting)

	// lastLine/lastSeen repeat the read set's most recent entry (line
	// key, version+1), so a run of reads on one line — a probe scanning a
	// bucket's slots — records the line once.
	lastLine, lastSeen uint64

	// Held lock-table slots. A commit fills lockOrder with the slots
	// covering the write set: appended raw, then sorted and deduped in
	// place, so acquisition runs in ascending slot order. A session keeps
	// it sorted as it locks each touched line.
	// lockPrev[i] is the pre-lock version of lockOrder[i], recorded at
	// acquisition; aborts revert from it, and read-validation finds a
	// held slot's pre-lock version by binary search on the sorted
	// lockOrder where the old []lockedSlot needed an O(locked) linear
	// scan per validated read.
	lockOrder []uint64
	lockPrev  []uint64

	// Session-only state: release's scratch (slot covers a buffered
	// write), and the restart count behind escalation to fbMu.
	written   []bool
	restarts  int
	escalated bool

	res Result
}

// lookupWrite returns the buffered write for p, or nil.
func (tx *Tx) lookupWrite(p *uint64) *writeEntry {
	if len(tx.writes) == 0 {
		return nil
	}
	if idx, ok := tx.writeIdx.get(uint64(uintptr(unsafe.Pointer(p)))); ok {
		return &tx.writes[idx-1]
	}
	return nil
}

type txAbort struct{ tx *Tx }

func (tx *Tx) abort(cause AbortCause, code uint8) {
	tx.res = Result{Cause: cause, Code: code}
	panic(txAbort{tx})
}

// Abort explicitly aborts the transaction with a user code, like _xabort.
// In a session it abandons the session: held lines revert, buffered writes
// are dropped, and the code comes back in RunSession's result.
func (tx *Tx) Abort(code uint8) {
	tx.abort(CauseExplicit, code)
}

// Load transactionally reads a DRAM word.
func (tx *Tx) Load(p *uint64) uint64 {
	if tx.sess {
		return tx.sessionLoad(p, nil, 0)
	}
	if we := tx.lookupWrite(p); we != nil {
		return we.val
	}
	return tx.loadCommon(p, nil, 0)
}

// LoadAddr transactionally reads a word of simulated NVM.
func (tx *Tx) LoadAddr(h *nvm.Heap, a nvm.Addr) uint64 {
	p := h.WordPtr(a)
	if tx.sess {
		return tx.sessionLoad(p, h, a)
	}
	if we := tx.lookupWrite(p); we != nil {
		return we.val
	}
	return tx.loadCommon(p, h, a)
}

func (tx *Tx) loadCommon(p *uint64, h *nvm.Heap, a nvm.Addr) uint64 {
	lk := lineKey(p)
	idx := tx.tm.slotIdx(lk)
	slot := &tx.tm.table[idx]
	for spins := 0; ; spins++ {
		v1 := slot.Load()
		if v1&1 == 1 {
			tx.tm.noteFallbackBlocked(v1)
			tx.abort(CauseConflict, 0)
		}
		var val uint64
		if h != nil {
			val = h.Load(a)
		} else {
			val = atomic.LoadUint64(p)
		}
		v2 := slot.Load()
		if v2 != v1 {
			if spins > 8 {
				tx.abort(CauseConflict, 0)
			}
			continue
		}
		if v1>>1 > tx.rv {
			tx.abort(CauseConflict, 0)
		}
		// Record the observed version (stored +1 so version 0 survives
		// the set's zero-means-empty convention). The line this attempt
		// recorded last, seen at the same version, is in the set already;
		// any other version falls through to the set, which aborts.
		if lk == tx.lastLine && v1+1 == tx.lastSeen {
			return val
		}
		if prev, inserted, full := tx.reads.put(lk, v1+1); !inserted {
			if !full && prev != v1+1 {
				tx.abort(CauseConflict, 0)
			}
			if full {
				tx.abort(CauseCapacity, 0)
			}
		} else if tx.reads.len() > tx.tm.cfg.MaxReadLines {
			tx.abort(CauseCapacity, 0)
		}
		tx.lastLine, tx.lastSeen = lk, v1+1
		return val
	}
}

// Store transactionally writes a DRAM word. The write is buffered and
// becomes visible only if the transaction commits.
func (tx *Tx) Store(p *uint64, v uint64) {
	tx.storeCommon(p, writeEntry{val: v})
}

// StoreAddr transactionally writes a word of simulated NVM. On commit the
// write goes through the heap so that dirty-line tracking stays correct.
func (tx *Tx) StoreAddr(h *nvm.Heap, a nvm.Addr, v uint64) {
	tx.storeCommon(h.WordPtr(a), writeEntry{val: v, heap: h, addr: a})
}

func (tx *Tx) storeCommon(p *uint64, we writeEntry) {
	we.p = p
	if tx.sess {
		tx.sessionStore(we)
		return
	}
	if prev := tx.lookupWrite(p); prev != nil {
		*prev = we
		return
	}
	lk := lineKey(p)
	if _, inserted, full := tx.wlines.put(lk, 1); full {
		tx.abort(CauseCapacity, 0)
	} else if inserted && tx.wlines.len() > tx.tm.cfg.MaxWriteLines {
		tx.abort(CauseCapacity, 0)
	}
	tx.writes = append(tx.writes, we)
	if !tx.writeIdx.set(uint64(uintptr(unsafe.Pointer(p))), uint64(len(tx.writes))) {
		tx.abort(CauseCapacity, 0)
	}
}

// Flush models attempting clwb inside a transaction: it always aborts,
// because write-back instructions are unsupported in speculative execution.
// A session refuses it the same way (it would flush while holding line
// locks), so a body cannot come to depend on the mode it runs in.
func (tx *Tx) Flush() { tx.abort(CausePersistOp, 0) }

// Fence models attempting sfence inside a transaction: it always aborts.
func (tx *Tx) Fence() { tx.abort(CausePersistOp, 0) }

func (tx *Tx) reset(owner, rv uint64) {
	tx.sess = false
	tx.owner = owner
	tx.rv = rv
	tx.reads.reset()
	tx.lastLine, tx.lastSeen = 0, 0
	tx.writes = tx.writes[:0]
	tx.writeIdx.reset()
	tx.wlines.reset()
	tx.lockOrder = tx.lockOrder[:0]
	tx.lockPrev = tx.lockPrev[:0]
	tx.res = Result{}
}

// dropWrites empties the write set, zeroing the entries it held: a write
// entry points into its heap, and a Tx resting in the pool must not keep
// the last heap it wrote reachable.
func (tx *Tx) dropWrites() {
	clear(tx.writes)
	tx.writes = tx.writes[:0]
}

// put returns a finished Tx to the pool, holding no heap.
func (tm *TM) put(tx *Tx) {
	tx.dropWrites()
	tm.pool.Put(tx)
}

func (tx *Tx) commit() bool {
	tm := tx.tm
	if len(tx.writes) == 0 {
		return true // read-only: validated incrementally, rv-consistent
	}
	// Gather the lock-table slots covering the write set, then sort and
	// dedup adjacent duplicates in place — O(writes log writes) total,
	// where the old code scanned the held list per write (O(writes²)).
	for i := range tx.writes {
		tx.lockOrder = append(tx.lockOrder, tm.slotIdx(lineKey(tx.writes[i].p)))
	}
	slices.Sort(tx.lockOrder)
	distinct := 0
	for i, idx := range tx.lockOrder {
		if i > 0 && idx == tx.lockOrder[i-1] {
			continue
		}
		tx.lockOrder[distinct] = idx
		distinct++
	}
	tx.lockOrder = tx.lockOrder[:distinct]
	// Acquire in ascending slot order (try-lock; abort on contention, as
	// hardware would). Sorted acquisition breaks the symmetric-abort
	// livelock where two transactions lock their first lines in opposite
	// order and each aborts the other forever: with a global order, one
	// of any pair of contenders always wins.
	lockedWord := tx.owner
	tm.held.Add(1)
	for n, idx := range tx.lockOrder {
		slot := &tm.table[idx]
		cur := slot.Load()
		if cur&1 == 1 || !slot.CompareAndSwap(cur, lockedWord) {
			tm.noteFallbackBlocked(slot.Load())
			tx.releaseLocks(n, 0, false)
			tm.held.Add(-1)
			return false
		}
		tx.lockPrev = append(tx.lockPrev, cur)
	}
	// Validate the read set (versions were recorded +1).
	valid := true
	tx.reads.forEach(func(lk, seenPlus1 uint64) bool {
		seen := seenPlus1 - 1
		idx := tm.slotIdx(lk)
		cur := tm.table[idx].Load()
		if cur == seen {
			return true
		}
		if cur == lockedWord {
			// We hold this slot; compare against its pre-lock version,
			// found by binary search on the sorted acquisition order.
			if n, ok := slices.BinarySearch(tx.lockOrder, idx); ok && tx.lockPrev[n] == seen {
				return true
			}
		}
		tm.noteFallbackBlocked(cur)
		valid = false
		return false
	})
	if !valid {
		tx.releaseLocks(len(tx.lockOrder), 0, false)
		tm.held.Add(-1)
		return false
	}
	wv := tm.clock.Add(1)
	// Write back.
	for i := range tx.writes {
		tx.writes[i].apply()
	}
	tx.releaseLocks(len(tx.lockOrder), wv, true)
	tm.held.Add(-1)
	return true
}

// noteFallbackBlocked counts a fast-path abort whose blocking slot word
// belongs to a session (fbOwnerBit set), so the slow path's cost
// to concurrent transactions is observable.
func (tm *TM) noteFallbackBlocked(slotWord uint64) {
	if slotWord&1 == 1 && slotWord&fbOwnerBit != 0 {
		tm.stats.fallbackBlocked.Add(1)
	}
}

// releaseLocks releases the first n slots of lockOrder — the ones the
// sorted acquisition loop actually locked — and clears the lock state.
// On commit every slot takes the new version; on abort each reverts to
// its pre-lock version recorded in lockPrev.
func (tx *Tx) releaseLocks(n int, wv uint64, committed bool) {
	for i, idx := range tx.lockOrder[:n] {
		if committed {
			tx.tm.table[idx].Store(wv << 1)
		} else {
			tx.tm.table[idx].Store(tx.lockPrev[i])
		}
	}
	tx.lockOrder = tx.lockOrder[:0]
	tx.lockPrev = tx.lockPrev[:0]
}

// Attempt runs body as one transaction attempt and reports the outcome.
// There is no automatic retry, exactly as with _xbegin/_xend; operations
// that want Listing 1's retry-then-session policy use Run. If body panics
// with anything other than a transactional abort, the panic propagates
// after the attempt's speculative state is discarded.
func (tm *TM) Attempt(body func(tx *Tx)) Result {
	return tm.attempt(nil, body, false)
}

// attempt is Attempt with Run's two extras: a sampled request span, on
// which the attempt's outcome (commit or per-cause abort, including
// injected aborts) is also counted — nil for unsampled requests, which pay
// one pointer test — and preWalked, which marks the attempt as preceded by
// a non-transactional pre-walk of the data, the paper's mitigation for
// MEMTYPE aborts.
func (tm *TM) attempt(sp *obs.Span, body func(tx *Tx), preWalked bool) Result {
	if tm.obs == nil && sp == nil {
		return tm.try(body, preWalked)
	}
	start := tm.obs.Now()
	res := tm.try(body, preWalked)
	// Cause doubles as the outcome index: CauseNone == OutCommit. The
	// timestamp doubles as the shard hint, spreading concurrent attempts
	// across histogram lanes without needing a thread ID.
	tm.obs.Attempt(obs.Outcome(res.Cause), uint64(start), start)
	sp.RecordAttempt(obs.Outcome(res.Cause))
	return res
}

func (tm *TM) try(body func(tx *Tx), preWalked bool) Result {
	// Injected aborts: decided up front, charged before any work, like a
	// transaction killed early by an interrupt.
	if tm.chance(tm.cfg.SpuriousRate) {
		tm.note(CauseSpurious)
		return Result{Cause: CauseSpurious}
	}
	mtRate := tm.cfg.MemTypeRate
	if preWalked {
		mtRate = tm.cfg.PreWalkResidualRate
	}
	if tm.chance(mtRate) {
		tm.note(CauseMemType)
		return Result{Cause: CauseMemType}
	}

	tx := tm.pool.Get().(*Tx)
	defer tm.put(tx)
	tx.reset(tm.txIDs.Add(1)<<1|1, tm.clock.Load())

	res, ok := tm.runBody(tx, body)
	if !ok {
		tm.note(res.Cause)
		return res
	}
	if tx.commit() {
		tm.note(CauseNone)
		return Result{Committed: true}
	}
	tm.note(CauseConflict)
	return Result{Cause: CauseConflict}
}

// note records one attempt's outcome: the per-cause counter, and the
// streak of futile aborts behind budget. A commit pays one shared read
// unless there is a streak to clear.
func (tm *TM) note(c AbortCause) {
	tm.stats.record(c)
	switch c {
	case CauseNone:
		if tm.futile.Load() != 0 {
			tm.futile.Store(0)
		}
	case CauseSpurious, CauseMemType, CauseCapacity:
		tm.futile.Add(1)
	}
}

// maxRetries is every operation's retry budget: the transaction attempts
// Run spends before it takes the slow path. It is the TM's call, not each
// structure's.
const maxRetries = 32

// budget returns how many fast-path attempts an operation may spend before
// it takes its slow path. That is maxRetries, until 4*maxRetries
// consecutive attempts anywhere on the TM have ended in an abort a retry
// does not cure (spurious, memtype, capacity — conflict and explicit
// aborts neither count nor reset) with no commit in between; from then on
// it is 1, so every operation still probes the fast path once, and the
// first commit restores the full budget. Run compares against it after
// every failed attempt.
func (tm *TM) budget() int {
	if tm.futile.Load() >= 4*maxRetries {
		return 1
	}
	return maxRetries
}

// runBody executes the body, converting abort panics into results.
// ok reports whether the body ran to completion (and may try to commit, or
// finish its session). A foreign panic in a session releases the held
// slots and closes it before propagating, so the table is never left
// locked.
func (tm *TM) runBody(tx *Tx, body func(tx *Tx)) (res Result, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if ab, isAbort := r.(txAbort); isAbort && ab.tx == tx {
				res, ok = tx.res, false
				return
			}
			if tx.sess {
				tx.release(false)
				tm.closeSession(tx)
			}
			panic(r)
		}
	}()
	body(tx)
	return Result{}, true
}

// backoff yields for a bounded, jittered, exponentially growing delay
// after a session's restart-th restart (Run retries attempts at once).
// Exponential growth separates contenders that keep colliding; jitter keeps
// two sessions with identical restart counts from re-colliding in lockstep;
// the bound keeps worst-case delay in the tens of microseconds.
func (tm *TM) backoff(restart int) {
	shift := restart
	if shift > 6 {
		shift = 6
	}
	window := uint64(1) << shift
	// splitmix64 over a dedicated atomic counter (see backoffRNG).
	z := tm.backoffRNG.Add(0xa0761d6478bd642f)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	jitter := (z ^ (z >> 31)) % window
	for i := uint64(0); i < window+jitter; i++ {
		runtime.Gosched()
	}
}
