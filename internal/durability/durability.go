// Package durability abstracts the epoch-close persist path behind a
// pluggable Engine, turning the paper's qualitative "buffered durability
// beats logging" argument (Sec. 2) into something the repo can measure.
//
// The epoch system hands every advance's tracked extents to an Engine,
// which makes them — and the durable-epoch watermark — persistent in its
// own discipline:
//
//	bdl     the paper's epoch engine: one write-back of the epoch's
//	        extents, one trailing fence, then a flushed watermark bump
//	        (2 fences).
//	undo    undo logging: persist the pre-images and an armed commit
//	        record, apply, disarm and bump the watermark (3 fences).
//	redo4f  classic redo logging: entries / commit record / data /
//	        watermark each behind their own fence (4 fences).
//	redo2f  redo logging with the entry and record flushes combined and
//	        the apply+watermark group combined (2 fences).
//	quadra  Quadra-style single-fence commit: log, record, data and
//	        watermark all flushed in program order, one trailing fence.
//
// The logging engines (modeled on pramalhe/durabletx's fence-count
// ladder) live in a word region the persistent allocator never touches:
// palloc aligns its first slab up to word 4096, while the heap's root
// area ends at word 64, so words [64, 4096) are the engine's to use.
//
// Every engine maintains the same external invariant the BDL recovery
// scan relies on: at any crash point the durable watermark names an
// epoch P whose extents — tracked blocks, the epoch's retire-journal
// pages, checkpointed headers; the engine does not tell them apart — are
// fully persistent, and any partially-persisted later-epoch data is
// discarded or resurrected by the judgment in epoch.Recover.
package durability

import (
	"fmt"
	"sync/atomic"

	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// Durable root words owned by the durability layer (the epoch system
// owns word 1, its format magic).
const (
	// WatermarkAddr holds the newest fully-durable epoch. Every engine
	// advances it in its own discipline; recovery reads it back as the
	// recovery boundary P.
	WatermarkAddr nvm.Addr = 2
	// engineIDAddr records which engine formatted the heap, so that
	// recovering with a different engine fails loudly instead of
	// misreading the log region.
	engineIDAddr nvm.Addr = 3

	engineIDMagic = uint64(0xbd7e) << 48
)

// Engine IDs stored at engineIDAddr (stable; part of the heap format).
const (
	idBDL uint64 = iota + 1
	idUndo
	idRedo4F
	idRedo2F
	idQuadra
)

// DefaultEngine is the engine used when no name is given: the paper's
// BDL epoch engine.
const DefaultEngine = "bdl"

// Engine is one epoch-close persist discipline. The epoch system drives
// it once per closing epoch, single-threaded:
//
//	Begin(x)       open the commit for epoch x
//	LogWrite(ext)  declare one extent of the epoch
//	Commit()       make every declared extent and the watermark x
//	               durable
//
// Format initializes a fresh heap's engine words (the caller flushes
// the root line and fences). Recover repairs the persistent image after
// a crash — rolling back or replaying any interrupted commit — and
// returns the watermark; it must leave the heap in a state where the
// standard palloc header judgment yields exactly the watermark epoch's
// contents. Watermark returns the newest durable epoch without touching
// the heap. A crash-simulation panic may unwind out of Commit at any
// persist point; the engine's in-memory state is dead afterwards and
// recovery always starts from a fresh Engine.
type Engine interface {
	Name() string
	// FencesPerCommit is the engine's documented fence budget for one
	// epoch-close commit (absent log spills).
	FencesPerCommit() int64
	Format(watermark uint64)
	Begin(epoch uint64)
	LogWrite(ext nvm.Extent)
	Commit()
	Watermark() uint64
	Recover() uint64
	Accounting() Accounting
}

// Accounting is the engine's fence/flush self-accounting: every fence
// and flush operation the engine itself issues on the heap, the log
// traffic behind them, and the commits they amortize over. Fences ==
// Commits*FencesPerCommit + spill surcharge, a relation the fence
// property test pins per engine.
type Accounting struct {
	Commits  int64 // epoch-close commits executed
	Fences   int64 // fences issued by the engine
	Flushes  int64 // flush operations issued (extents + control lines)
	LogWords int64 // words written to the log region
	Spills   int64 // extra log segments sealed mid-commit (overflow)
}

// Names returns the registered engine names in their canonical order.
func Names() []string { return []string{"bdl", "undo", "redo4f", "redo2f", "quadra"} }

// New builds the named engine over the heap. An empty name selects
// DefaultEngine. The recorder (which may be nil) receives the commit's
// flush and root epoch-phase samples; the engine's own counters are its
// Accounting.
func New(name string, h *nvm.Heap, rec *obs.Recorder) (Engine, error) {
	if name == "" {
		name = DefaultEngine
	}
	var e Engine
	var b *base
	switch name {
	case "bdl":
		eng := &bdlEngine{}
		e, b = eng, &eng.base
	case "undo":
		eng := &logEngine{disc: discUndo, name: name, id: idUndo}
		e, b = eng, &eng.base
	case "redo4f":
		eng := &logEngine{disc: discRedo4F, name: name, id: idRedo4F}
		e, b = eng, &eng.base
	case "redo2f":
		eng := &logEngine{disc: discRedo2F, name: name, id: idRedo2F}
		e, b = eng, &eng.base
	case "quadra":
		eng := &logEngine{disc: discQuadra, name: name, id: idQuadra}
		e, b = eng, &eng.base
	default:
		return nil, fmt.Errorf("durability: unknown engine %q (have %v)", name, Names())
	}
	b.heap, b.rec = h, rec
	return e, nil
}

// StoreWatermark durably bumps the watermark word outside any engine.
// It is the eADR path: with a persistent cache the store is already
// durable, so the epoch system skips the engine entirely and only the
// watermark needs recording (Flush/Fence are free there).
func StoreWatermark(h *nvm.Heap, epoch uint64) {
	h.Store(WatermarkAddr, epoch)
	h.Persist(WatermarkAddr)
}

// base carries the state and accounting shared by every engine: the
// extents of the open commit, the cached watermark, and the fence/flush
// counters.
type base struct {
	heap *nvm.Heap
	rec  *obs.Recorder

	epoch uint64
	t     int64 // obs timestamp chained through the commit's phase samples

	exts []nvm.Extent // the open commit's extents, in LogWrite order

	watermark atomic.Uint64

	commits  atomic.Int64
	fences   atomic.Int64
	flushes  atomic.Int64
	logWords atomic.Int64
	spills   atomic.Int64
}

func (b *base) Watermark() uint64 { return b.watermark.Load() }

func (b *base) Accounting() Accounting {
	return Accounting{
		Commits:  b.commits.Load(),
		Fences:   b.fences.Load(),
		Flushes:  b.flushes.Load(),
		LogWords: b.logWords.Load(),
		Spills:   b.spills.Load(),
	}
}

func (b *base) Begin(epoch uint64) {
	b.epoch = epoch
	b.t = b.rec.Now()
}

func (b *base) LogWrite(ext nvm.Extent) {
	b.exts = append(b.exts, ext)
}

// format writes the watermark and engine-identity root words. The
// caller (epoch.New) flushes the root line and fences.
func (b *base) format(watermark, id uint64) {
	b.heap.Store(WatermarkAddr, watermark)
	b.heap.Store(engineIDAddr, engineIDMagic|id)
	b.watermark.Store(watermark)
}

// checkID panics when the heap was formatted by a different engine:
// recovering a logging heap with the wrong discipline would misread
// (or silently ignore) the commit record.
func (b *base) checkID(id uint64, name string) {
	got := b.heap.Load(engineIDAddr)
	if got == engineIDMagic|id {
		return
	}
	have := "unknown"
	if got&(uint64(0xffff)<<48) == engineIDMagic {
		if i := got &^ engineIDMagic; i >= 1 && int(i) <= len(Names()) {
			have = Names()[i-1]
		}
	}
	panic(fmt.Sprintf("durability: heap formatted by engine %q, recovering with %q", have, name))
}

// reset drops the committed batch, keeping capacity.
func (b *base) reset() {
	b.exts = b.exts[:0]
}

// fence issues one accounted store fence.
func (b *base) fence() {
	b.heap.Fence()
	b.fences.Add(1)
}

// flushWord issues one accounted line flush for a control word.
func (b *base) flushWord(a nvm.Addr) {
	b.heap.Flush(a)
	b.flushes.Add(1)
}

// phase records one epoch-phase sample chained from the previous one.
func (b *base) phase(p obs.EpochPhase) {
	if b.rec != nil {
		b.t = b.rec.Phase(p, b.epoch, b.t)
	}
}

// apply writes a batch of extents back to the persistent image in one
// FlushExtents call. It does not fence.
func (b *base) apply(exts []nvm.Extent) {
	b.heap.FlushExtents(exts)
	b.flushes.Add(int64(len(exts)))
}
