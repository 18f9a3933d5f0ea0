package durability

import (
	"bdhtm/internal/obs"
)

// bdlEngine is the paper's buffered-durability epoch engine, extracted
// verbatim from the pre-engine epoch system: the closing epoch's
// extents are written back in one batch, a single fence orders them, and
// the watermark bump is flushed behind a second fence. No log is kept — the per-worker epoch
// buffers upstream are the "log", and recovery relies purely on the
// palloc header judgment against the watermark.
//
// Fence budget: 2 per commit (write-back fence + watermark fence).
type bdlEngine struct {
	base
}

func (e *bdlEngine) Name() string           { return "bdl" }
func (e *bdlEngine) FencesPerCommit() int64 { return 2 }

func (e *bdlEngine) Format(watermark uint64) {
	e.format(watermark, idBDL)
}

func (e *bdlEngine) Commit() {
	e.commits.Add(1)
	e.apply(e.exts)
	e.fence()
	e.phase(obs.PhaseFlush)
	e.heap.Store(WatermarkAddr, e.epoch)
	e.flushWord(WatermarkAddr)
	e.fence()
	e.phase(obs.PhaseRoot)
	e.watermark.Store(e.epoch)
	e.reset()
}

// Recover re-asserts the watermark found on the heap. BDL needs no
// repair: a crash mid-commit left the watermark at the previous epoch,
// and whatever later-epoch lines leaked are discarded or resurrected by
// the caller's palloc scan.
func (e *bdlEngine) Recover() uint64 {
	e.checkID(idBDL, e.Name())
	p := e.heap.Load(WatermarkAddr)
	e.heap.Store(WatermarkAddr, p)
	e.flushWord(WatermarkAddr)
	e.fence()
	e.watermark.Store(p)
	return p
}
