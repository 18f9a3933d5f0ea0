// Package skiplist implements the five skiplist variants of the paper's
// Sec. 4.2 (Fig. 5) with a single engine:
//
//   - DL — the durably linearizable lock-free skiplist of Wang et al.:
//     every node lives in NVM, all multi-word updates go through PMwCAS,
//     and every critical update is persisted before the operation returns.
//   - PNoFlush — DL with persist instructions removed ("nonsensical": fast
//     but not crash consistent).
//   - PHTMMwCAS — DL with the descriptor protocol replaced by HTM-based
//     multi-word updates (still no crash consistency).
//   - BDL — the paper's contribution: towers in DRAM, KV pairs in NVM
//     blocks managed by the epoch system, HTM for multi-word atomicity.
//     Buffered-durably linearizable; recovery rebuilds the towers.
//   - Transient — everything in DRAM, descriptor MwCAS (the T-Skiplist
//     upper bound).
//
// All variants share the tower layout, the traversal, and an epoch-based
// reclamation scheme for unlinked nodes.
package skiplist

import (
	"fmt"
	"sync/atomic"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/mwcas"
	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
	"bdhtm/internal/palloc"
)

// Variant selects one of the paper's five skiplist configurations.
type Variant int

const (
	// DL is the strictly durable PMwCAS skiplist (Wang et al.).
	DL Variant = iota
	// PNoFlush is DL without persist instructions (not crash consistent).
	PNoFlush
	// PHTMMwCAS replaces descriptors with HTM (not crash consistent).
	PHTMMwCAS
	// BDL is the buffered-durable HTM skiplist (the paper's design).
	BDL
	// Transient keeps everything in DRAM (T-Skiplist).
	Transient
)

func (v Variant) String() string {
	switch v {
	case DL:
		return "DL-Skiplist"
	case PNoFlush:
		return "P-Skiplist-no-flush"
	case PHTMMwCAS:
		return "P-Skiplist-HTM-MwCAS"
	case BDL:
		return "BDL-Skiplist"
	case Transient:
		return "T-Skiplist"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

const (
	delMark = uint64(1) << 62

	// Node payload layout (words), relative to palloc.Payload.
	offKey   = 0
	offValue = 1 // inline value, or NVM block address for BDL
	offLevel = 2
	offNext  = 3

	// NodeTag marks skiplist tower blocks in their allocator.
	NodeTag uint8 = 0x51
	// descTag marks MwCAS descriptor blocks.
	descTag uint8 = 0x52
	// headTag marks the head sentinel so recovery can find it.
	headTag uint8 = 0x53

	defaultMaxLevel = 20
	retryCode       = 0xD7 // explicit-abort code: validation failed, re-find
	recaptureCode   = 0xD8 // explicit-abort code: era-seqlock moved, capture + re-find
)

// Config describes a skiplist instance.
type Config struct {
	Variant Variant
	// IndexHeap holds the towers: the NVM heap for DL/PNoFlush/PHTMMwCAS,
	// a DRAM-mode heap for BDL and Transient.
	IndexHeap *nvm.Heap
	// DataSys is the epoch system for KV blocks (BDL only).
	DataSys *epoch.System
	// TM is the transactional memory unit (PHTMMwCAS and BDL).
	TM *htm.TM
	// MaxLevel bounds tower height (default 20).
	MaxLevel int
	// Threads is the maximum number of concurrent handles (default 64).
	Threads int
}

func (c Config) withDefaults() Config {
	if c.MaxLevel == 0 {
		c.MaxLevel = defaultMaxLevel
	}
	if c.Threads == 0 {
		c.Threads = 64
	}
	return c
}

// List is a concurrent ordered map from uint64 keys to uint64 values.
// Obtain a Handle per goroutine to operate on it.
type List struct {
	cfg   Config
	h     *nvm.Heap // index heap
	al    *palloc.Allocator
	desc  *mwcas.Desc // descriptor engine (DL, PNoFlush, Transient)
	head  nvm.Addr
	reap  *ebr
	count atomic.Int64
	tids  atomic.Int32

	// teleport elides the EBR announcement stores on HTM variants (see
	// ebr / guard).
	teleport bool

	// removals guards BDL absence-dependent paths against acting on an
	// absence created by a newer-epoch removal (see epoch.RemovalStamps).
	removals epoch.RemovalStamps
}

// New creates a list. For BDL, cfg.IndexHeap must be a DRAM-mode heap and
// cfg.DataSys the epoch system over the NVM heap.
func New(cfg Config) *List {
	cfg = cfg.withDefaults()
	l := &List{cfg: cfg, h: cfg.IndexHeap}
	l.al = palloc.New(l.h)
	switch cfg.Variant {
	case DL:
		l.desc = mwcas.NewDesc(l.h, true, cfg.Threads, l.allocDescBlock)
	case PNoFlush, Transient:
		l.desc = mwcas.NewDesc(l.h, false, cfg.Threads, l.allocDescBlock)
	case PHTMMwCAS, BDL:
		if cfg.TM == nil {
			panic("skiplist: HTM variant requires a TM")
		}
		// Teleportation rides on transactional validation of the
		// era-seqlock, so it is only sound for the HTM variants.
		l.teleport = true
	}
	if cfg.Variant == BDL && cfg.DataSys == nil {
		panic("skiplist: BDL requires an epoch system")
	}
	l.reap = newEBR(l.al, cfg.Threads)
	if l.teleport {
		l.reap.tm = cfg.TM
		l.reap.tele = true
	}
	l.head = l.allocTagged(headTag, 0, 0, cfg.MaxLevel, make([]uint64, cfg.MaxLevel))
	return l
}

func (l *List) allocDescBlock(words int) nvm.Addr {
	b := l.al.AllocWords(words, descTag)
	return palloc.Payload(b)
}

// allocNode allocates and initializes a tower. In the DL variant the node
// is persisted before it becomes reachable (a pointer to an unpersisted
// node would dangle after a crash).
func (l *List) allocNode(key, value uint64, level int, nexts []uint64) nvm.Addr {
	return l.allocTagged(NodeTag, key, value, level, nexts)
}

func (l *List) allocTagged(tag uint8, key, value uint64, level int, nexts []uint64) nvm.Addr {
	b := l.al.AllocWords(offNext+level, tag)
	p := palloc.Payload(b)
	l.h.Store(p+offKey, key)
	l.h.Store(p+offValue, value)
	l.h.Store(p+offLevel, uint64(level))
	for i := 0; i < level; i++ {
		l.h.Store(p+offNext+nvm.Addr(i), nexts[i])
	}
	if l.cfg.Variant == DL {
		l.h.FlushRange(b, palloc.HeaderWords+offNext+level)
		l.h.Fence()
	}
	return b
}

func (l *List) key(n nvm.Addr) uint64 { return l.h.Load(palloc.Payload(n) + offKey) }
func (l *List) level(n nvm.Addr) int  { return int(l.h.Load(palloc.Payload(n) + offLevel)) }
func (l *List) valueAddr(n nvm.Addr) nvm.Addr {
	return palloc.Payload(n) + offValue
}
func (l *List) nextAddr(n nvm.Addr, i int) nvm.Addr {
	return palloc.Payload(n) + offNext + nvm.Addr(i)
}

// read returns a word's logical value, helping descriptor-based updates.
func (l *List) read(a nvm.Addr) uint64 {
	if l.desc != nil {
		return l.desc.Read(a)
	}
	return l.h.Load(a)
}

// Len returns the number of keys in the list.
func (l *List) Len() int { return int(l.count.Load()) }

// Variant returns the list's configuration variant.
func (l *List) Variant() Variant { return l.cfg.Variant }

// IndexAllocator exposes the tower allocator (space accounting, tests).
func (l *List) IndexAllocator() *palloc.Allocator { return l.al }

// Handle is a per-goroutine accessor.
type Handle struct {
	l        *List
	tid      int
	w        *epoch.Worker // BDL only
	rng      uint64
	prealloc epoch.Block // BDL: preallocated KV block
}

// NewHandle registers a goroutine-local handle.
func (l *List) NewHandle() *Handle {
	tid := int(l.tids.Add(1)) - 1
	if tid >= l.cfg.Threads {
		panic("skiplist: more handles than cfg.Threads")
	}
	h := &Handle{l: l, tid: tid, rng: uint64(tid)*0x9e3779b97f4a7c15 + 0x1234}
	if l.cfg.Variant == BDL {
		h.w = l.cfg.DataSys.Register()
	}
	return h
}

// Worker returns the handle's epoch worker (BDL lists; nil otherwise).
// Crash-consistency harnesses use it to read the final epoch of the
// handle's last completed operation (Worker().OpEpoch()).
func (h *Handle) Worker() *epoch.Worker { return h.w }

// Close releases the handle's epoch worker (BDL).
func (h *Handle) Close() {
	if h.w != nil {
		h.l.cfg.DataSys.Release(h.w)
		h.w = nil
	}
}

func (h *Handle) randLevel() int {
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	lvl := 1
	v := h.rng
	for v&1 == 1 && lvl < h.l.cfg.MaxLevel {
		lvl++
		v >>= 1
	}
	return lvl
}

// nodeOK bounds-checks a tower address read during an unannounced
// (teleporting) traversal: the walk can observe freed-and-recycled
// memory, so a raw word is not trusted to address a node until its whole
// extent — header through a MaxLevel tower — fits the index heap.
func (l *List) nodeOK(a nvm.Addr) bool {
	return a != 0 && int(a)+palloc.HeaderWords+offNext+l.cfg.MaxLevel <= l.h.Words()
}

// levelClamped reads a node's level, clamped to [1, MaxLevel]: an
// unannounced traversal can hand us a recycled block whose level word is
// garbage. A wrong-but-bounded level only mis-shapes the entry list,
// which transactional validation then rejects.
func (l *List) levelClamped(n nvm.Addr) int {
	lvl := l.level(n)
	if lvl < 1 || lvl > l.cfg.MaxLevel {
		return 1
	}
	return lvl
}

// blockOK bounds-checks a data-heap block address read from a tower's
// value word during an unannounced operation (BDL; the word may be
// recycled garbage).
func (l *List) blockOK(a nvm.Addr) bool {
	return a != 0 && int(a)+palloc.HeaderWords+epoch.KVPayloadWords <= l.cfg.DataSys.Heap().Words()
}

// find locates the key's position: preds[i] is the rightmost node whose
// key < k at level i, succs[i] the (unmarked) value of preds[i].next[i].
// It returns the node with key k, if linked. A teleporting traversal that
// overruns its step bound or reads a malformed pointer captures (full
// hazard announcement) and re-walks.
func (l *List) find(g *guard, k uint64) (preds []nvm.Addr, succs []uint64, found nvm.Addr) {
	for {
		preds, succs, found, ok := l.tryFind(g, k)
		if ok {
			return preds, succs, found
		}
		g.capture()
	}
}

func (l *List) tryFind(g *guard, k uint64) (preds []nvm.Addr, succs []uint64, found nvm.Addr, ok bool) {
	ml := l.cfg.MaxLevel
	preds = make([]nvm.Addr, ml)
	succs = make([]uint64, ml)
	steps, bound := 0, 0
	if g.teleporting() {
		// Recycled pointers could form a cycle; bound the walk well above
		// any honest traversal's length.
		bound = 1024 + 4*int(l.count.Load())
	}
	x := l.head
	for i := ml - 1; i >= 0; i-- {
		for {
			if bound != 0 {
				if steps++; steps > bound {
					return nil, nil, 0, false
				}
			}
			raw := l.read(l.nextAddr(x, i))
			nxt := raw &^ delMark
			if nxt != 0 && bound != 0 && !l.nodeOK(nvm.Addr(nxt)) {
				return nil, nil, 0, false
			}
			if nxt == 0 || l.key(nvm.Addr(nxt)) >= k {
				preds[i] = x
				succs[i] = nxt
				break
			}
			x = nvm.Addr(nxt)
		}
	}
	if s := succs[0]; s != 0 && l.key(nvm.Addr(s)) == k {
		found = nvm.Addr(s)
	}
	return preds, succs, found, true
}

// SetSpan attaches a sampled request span to the handle's epoch worker
// for the duration of one operation (BDL only; a no-op for transient
// variants, which have no worker to carry it).
func (h *Handle) SetSpan(sp *obs.Span) {
	if h.w != nil {
		h.w.SetSpan(sp)
	}
}

// Get returns the value stored under k.
func (h *Handle) Get(k uint64) (uint64, bool) {
	l := h.l
	if l.cfg.Variant == BDL {
		g := h.enterOp()
		defer g.exitOp()
		return h.getBDL(&g, k)
	}
	// Non-BDL reads never enter a transaction, so there is no seqlock to
	// validate against: they always announce.
	l.reap.enter(h.tid)
	defer l.reap.exit(h.tid)
	_, _, found := l.find(&guard{}, k)
	if found == 0 {
		return 0, false
	}
	// A concurrent remove may have unlinked the node after find; the
	// marked next pointer makes that visible.
	if l.read(l.nextAddr(found, 0))&delMark != 0 {
		return 0, false
	}
	return l.read(l.valueAddr(found)), true
}

// getBDL dereferences the node's NVM block inside a small transaction so
// that a racing remove (which marks next[0] in the same transaction that
// retires the block) cannot expose a reclaimed block's contents. A
// persistently aborting read escapes into a read-only session of the same
// body; guard.validate makes a teleporting one announce and re-find first.
func (h *Handle) getBDL(g *guard, k uint64) (uint64, bool) {
	l := h.l
	const maxRetries = 64
	for {
		_, _, found := l.find(g, k)
		if found == 0 {
			return 0, false
		}
		var v uint64
		var ok bool
		res := h.w.Run(l.cfg.TM, maxRetries, nil, func(tx *htm.Tx) {
			v, ok = 0, false
			g.validate(tx)
			if tx.LoadAddr(l.h, l.nextAddr(found, 0))&delMark != 0 {
				return
			}
			ba := nvm.Addr(tx.LoadAddr(l.h, l.valueAddr(found)))
			if g.teleporting() && !l.blockOK(ba) {
				tx.Abort(recaptureCode) // recycled tower: value word is garbage
			}
			v, ok = l.cfg.DataSys.BlockAt(ba).ValueTx(tx), true
		})
		if res.Committed {
			return v, ok
		}
		g.capture() // recaptureCode, the body's only explicit abort
	}
}

// Contains reports whether k is present.
func (h *Handle) Contains(k uint64) bool {
	_, ok := h.Get(k)
	return ok
}

// Insert adds or updates k (upsert), reporting whether an existing value
// was replaced.
func (h *Handle) Insert(k, v uint64) bool {
	l := h.l
	g := h.enterOp()
	defer g.exitOp()
	if l.cfg.Variant == BDL {
		return h.insertBDL(&g, k, v)
	}
	for {
		preds, succs, found := l.find(&g, k)
		if found != 0 {
			old := l.read(l.valueAddr(found))
			if h.apply(&g, []mwcas.Entry{{Addr: l.valueAddr(found), Old: old, New: v}}) {
				return true
			}
			continue
		}
		lvl := h.randLevel()
		node := l.allocNode(k, v, lvl, succs[:lvl])
		entries := make([]mwcas.Entry, lvl)
		for i := 0; i < lvl; i++ {
			entries[i] = mwcas.Entry{Addr: l.nextAddr(preds[i], i), Old: succs[i], New: uint64(node)}
		}
		if h.apply(&g, entries) {
			l.count.Add(1)
			return false
		}
		l.al.Free(node) // never became visible
	}
}

// Remove deletes k, reporting whether it was present. The unlink marks the
// node's own next pointers and swings the predecessors' pointers in one
// atomic multi-word update, so racing inserts that chose the node as a
// predecessor fail and retry.
func (h *Handle) Remove(k uint64) bool {
	l := h.l
	g := h.enterOp()
	defer g.exitOp()
	if l.cfg.Variant == BDL {
		return h.removeBDL(&g, k)
	}
	for {
		preds, _, found := l.find(&g, k)
		if found == 0 {
			return false
		}
		lvl := l.levelClamped(found)
		entries := make([]mwcas.Entry, 0, 2*lvl)
		retryFind := false
		for i := 0; i < lvl; i++ {
			nxt := l.read(l.nextAddr(found, i))
			if nxt&delMark != 0 {
				retryFind = true // another remove is ahead of us
				break
			}
			entries = append(entries,
				mwcas.Entry{Addr: l.nextAddr(found, i), Old: nxt, New: nxt | delMark},
				mwcas.Entry{Addr: l.nextAddr(preds[i], i), Old: uint64(found), New: nxt})
		}
		if retryFind {
			// Help the competing remove finish by re-finding; if the key
			// is gone we lost the race.
			if _, _, f := l.find(&g, k); f == 0 {
				return false
			}
			continue
		}
		if h.apply(&g, entries) {
			l.reap.retire(h.tid, found)
			l.count.Add(-1)
			return true
		}
	}
}

// apply performs one atomic multi-word update using the variant's
// mechanism: a (P)MwCAS descriptor or a hardware transaction.
func (h *Handle) apply(g *guard, entries []mwcas.Entry) bool {
	if h.l.desc != nil {
		return h.l.desc.Apply(h.tid, entries)
	}
	return h.l.htmApply(h.w, g, entries, nil) == applyOK
}

// applyResult is the outcome of one transactional multi-word update.
type applyResult int

const (
	// applyOK: committed.
	applyOK applyResult = iota
	// applyRetry: validation failed; the caller should re-find and retry.
	applyRetry
	// applyOldSeeNew: the operation observed a block from a newer epoch
	// and must restart in the current epoch (BDL).
	applyOldSeeNew
)

// htmApply runs the entries — validate all Olds, run the optional extra
// step, store all News — as one body under the worker's Run: a hardware
// transaction, then a slow-path session. extra may call
// tx.Abort(retryCode), tx.Abort(recaptureCode) or
// tx.Abort(epoch.OldSeeNewCode), and like any body must reset its outputs
// on entry. A session does not validate the era-seqlock, so guard.validate
// sends a still-teleporting operation back (recaptureCode) to announce and
// re-find before its entries are trusted.
func (l *List) htmApply(w *epoch.Worker, g *guard, entries []mwcas.Entry, extra func(tx *htm.Tx)) applyResult {
	const maxRetries = 64
	res := w.Run(l.cfg.TM, maxRetries, nil, func(tx *htm.Tx) {
		g.validate(tx)
		for _, e := range entries {
			if tx.LoadAddr(l.h, e.Addr) != e.Old {
				tx.Abort(retryCode)
			}
		}
		if extra != nil {
			extra(tx)
		}
		for _, e := range entries {
			tx.StoreAddr(l.h, e.Addr, e.New)
		}
	})
	switch {
	case res.Committed:
		return applyOK
	case res.Code == retryCode:
		return applyRetry
	case res.Code == recaptureCode:
		g.capture()
		return applyRetry
	case res.Code == epoch.OldSeeNewCode:
		return applyOldSeeNew
	default:
		panic(fmt.Sprintf("skiplist: unexpected outcome %+v", res))
	}
}
