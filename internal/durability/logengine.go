package durability

import (
	"fmt"
	"sync/atomic"

	"bdhtm/internal/nvm"
	"bdhtm/internal/obs"
)

// The logging engines keep a write-ahead log in the word gap between
// the heap's root area (ends at nvm.RootWords) and the allocator's
// first slab (palloc aligns its start up to word 4096). The commit
// record occupies its own cache line, so the simulator's line-atomic
// write-back makes record updates crash-atomic; the entry stream fills
// the rest of the gap and spills into multiple sealed segments when a
// commit outgrows it.
const (
	logRecordAddr nvm.Addr = nvm.RootWords // commit-record line (words 64..71)

	recEpochAddr = logRecordAddr + 0 // epoch the record commits
	recWordsAddr = logRecordAddr + 1 // entry words used this segment
	recCksumAddr = logRecordAddr + 2 // checksum over epoch + entry words
	recStateAddr = logRecordAddr + 3 // state word (below)

	logEntriesAddr nvm.Addr = logRecordAddr + nvm.LineWords // 72
	logLimitAddr   nvm.Addr = 4096                          // first palloc slab
)

// Commit-record states. recFinalBit marks the commit's last segment:
// only a final redo/quadra record may advance the watermark at
// recovery (earlier spill segments were already applied and fenced
// before the final record was written).
const (
	recEmpty     uint64 = 0
	recArmed     uint64 = 1 // undo: pre-images valid, apply may be in flight
	recCommitted uint64 = 2 // redo/quadra: new values valid, epoch committed
	recStateMask uint64 = 0xff
	recFinalBit  uint64 = 1 << 8
)

// discipline selects where the fences fall in a logged commit.
type discipline uint8

const (
	discUndo discipline = iota
	discRedo4F
	discRedo2F
	discQuadra
)

// logEngine is the shared implementation of the undo, redo (4- and
// 2-fence) and Quadra-style single-fence engines. The four disciplines
// write the same entry stream — one header word plus the extent's
// payload per tracked extent — and differ in what they log (pre-images
// for undo, new values otherwise), where the fences fall, and how
// recovery treats a surviving record (roll back vs. replay/adopt).
type logEngine struct {
	base
	disc discipline
	name string
	id   uint64
}

func (e *logEngine) Name() string { return e.name }

func (e *logEngine) FencesPerCommit() int64 {
	switch e.disc {
	case discUndo:
		return 3
	case discRedo4F:
		return 4
	case discRedo2F:
		return 2
	default: // discQuadra
		return 1
	}
}

func (e *logEngine) Format(watermark uint64) {
	if e.heap.Words() < int(logLimitAddr) {
		panic(fmt.Sprintf("durability: heap too small for the %s log region (%d words < %d)",
			e.name, e.heap.Words(), logLimitAddr))
	}
	e.format(watermark, e.id)
	h := e.heap
	h.Store(recEpochAddr, 0)
	h.Store(recWordsAddr, 0)
	h.Store(recCksumAddr, 0)
	h.Store(recStateAddr, recEmpty)
	e.flushWord(recStateAddr)
}

// Commit makes the epoch's extents and the watermark durable through
// the engine's log discipline, one entry per extent in LogWrite order; when
// the next entry would overflow the log region the current segment is sealed
// — logged, fenced and applied per the discipline — and the log restarts
// (a "spill", surcharged on the fence budget and counted in
// Accounting.Spills).
func (e *logEngine) Commit() {
	e.commits.Add(1)
	seg := 0
	pos := logEntriesAddr
	for i, ex := range e.exts {
		need := nvm.Addr(1 + ex.Words)
		if logEntriesAddr+need > logLimitAddr {
			panic(fmt.Sprintf("durability: extent of %d words exceeds the log region", ex.Words))
		}
		if pos+need > logLimitAddr {
			e.commitSegment(e.exts[seg:i], pos, false)
			e.spills.Add(1)
			seg, pos = i, logEntriesAddr
		}
		pos = e.writeEntry(pos, ex)
	}
	e.commitSegment(e.exts[seg:], pos, true)
	e.phase(obs.PhaseFlush)
	e.phase(obs.PhaseRoot)
	e.watermark.Store(e.epoch)
	e.reset()
}

// writeEntry stores one entry at pos: a header word (address, length)
// followed by the extent's payload — the current
// volatile values for the redo family, the persistent-image pre-images
// for undo (read before this segment's apply, so rollback restores the
// media state the commit found).
func (e *logEngine) writeEntry(pos nvm.Addr, ext nvm.Extent) nvm.Addr {
	h := e.heap
	h.Store(pos, uint64(ext.Addr)<<16|uint64(ext.Words))
	for i := 0; i < ext.Words; i++ {
		var v uint64
		if e.disc == discUndo {
			v = h.PersistedLoad(ext.Addr + nvm.Addr(i))
		} else {
			v = atomic.LoadUint64(h.WordPtr(ext.Addr + nvm.Addr(i)))
		}
		h.Store(pos+1+nvm.Addr(i), v)
	}
	e.logWords.Add(int64(1 + ext.Words))
	return pos + nvm.Addr(1+ext.Words)
}

// logChecksum mixes the epoch and the entry words [logEntriesAddr, end)
// into the commit record's checksum: a record is only honored at
// recovery when its checksum matches, which is what lets the 2- and
// 1-fence disciplines trust a record whose entry flushes were only
// program-ordered, and what rejects a record left over from a previous
// commit after the entry area was partially rewritten.
func (e *logEngine) logChecksum(epoch uint64, end nvm.Addr) uint64 {
	h := uint64(0x9e3779b97f4a7c15) ^ epoch
	for a := logEntriesAddr; a < end; a++ {
		h ^= atomic.LoadUint64(e.heap.WordPtr(a))
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

// flushLog flushes the entry words [logEntriesAddr, end).
func (e *logEngine) flushLog(end nvm.Addr) {
	words := int(end - logEntriesAddr)
	if words <= 0 {
		return
	}
	e.heap.FlushRange(logEntriesAddr, words)
	lines := int64((end-1)/nvm.LineWords - logEntriesAddr/nvm.LineWords + 1)
	e.flushes.Add(lines)
}

// writeRecord stores and flushes the commit record in one line-atomic
// update.
func (e *logEngine) writeRecord(end nvm.Addr, state uint64) {
	h := e.heap
	h.Store(recEpochAddr, e.epoch)
	h.Store(recWordsAddr, uint64(end-logEntriesAddr))
	h.Store(recCksumAddr, e.logChecksum(e.epoch, end))
	h.Store(recStateAddr, state)
	e.flushWord(recStateAddr)
}

// clearRecord disarms the commit record.
func (e *logEngine) clearRecord() {
	e.heap.Store(recStateAddr, recEmpty)
	e.flushWord(recStateAddr)
}

// bumpWatermark stores and flushes (but does not fence) the watermark.
func (e *logEngine) bumpWatermark(epoch uint64) {
	e.heap.Store(WatermarkAddr, epoch)
	e.flushWord(WatermarkAddr)
}

// commitSegment seals one log segment: entries [seg start, end) are in
// the volatile log area and every discipline makes them durable, writes
// the record, applies the data extents and (on the final segment)
// advances the watermark — with the fences where the discipline puts
// them. Within one segment the flushes are program-ordered, which the
// simulator makes synchronous; the fence placement is what the budget
// accounting (and a real machine) would pay.
func (e *logEngine) commitSegment(exts []nvm.Extent, end nvm.Addr, final bool) {
	state := recCommitted
	if e.disc == discUndo {
		state = recArmed
	}
	if final {
		state |= recFinalBit
	}

	switch e.disc {
	case discUndo:
		// F1: pre-images and the armed record are durable before any
		// data write-back can reach the media.
		e.flushLog(end)
		e.writeRecord(end, state)
		e.fence()
		// F2: the data write-back is durable.
		e.apply(exts)
		e.fence()
		// F3: disarm strictly before the watermark advances, so "record
		// armed" always implies "watermark still behind" — a crash
		// between the two flushes loses the epoch (header judgment
		// discards it) but never rolls back a watermarked epoch.
		e.clearRecord()
		if final {
			e.bumpWatermark(e.epoch)
		}
		e.fence()
	case discRedo4F:
		e.flushLog(end)
		e.fence() // F1: entries durable
		e.writeRecord(end, state)
		e.fence() // F2: commit point
		e.apply(exts)
		e.fence() // F3: data durable
		if final {
			e.bumpWatermark(e.epoch)
		}
		e.clearRecord()
		e.fence() // F4: watermark + disarm durable
	case discRedo2F:
		e.flushLog(end)
		e.writeRecord(end, state)
		e.fence() // F1: commit point (entries program-ordered before the record)
		e.apply(exts)
		if final {
			e.bumpWatermark(e.epoch)
		}
		e.clearRecord()
		e.fence() // F2: data + watermark + disarm durable
	default: // discQuadra
		// Single-fence commit: log, record, data and watermark reach
		// the media in program order; the one trailing fence publishes
		// the lot. The record is left in place (committed, epoch ==
		// watermark) rather than cleared — recovery ignores records at
		// or behind the watermark, and the checksum rejects the record
		// once the next commit starts rewriting the entry area.
		e.flushLog(end)
		e.writeRecord(end, state)
		e.apply(exts)
		if final {
			e.bumpWatermark(e.epoch)
		}
		e.fence() // F1
	}
}

// Recover inspects the commit record left by a crash and repairs the
// persistent image: an armed undo record rolls its pre-images back (in
// reverse, restoring the media state the interrupted commit found); a
// committed redo/quadra record ahead of the watermark is replayed
// forward and, if it was the commit's final segment, its epoch is
// adopted as the watermark. Invalid or stale records are discarded.
// Returns the resulting watermark; the caller's palloc scan then
// rebuilds exactly that epoch's contents.
func (e *logEngine) Recover() uint64 {
	e.checkID(e.id, e.name)
	h := e.heap
	root := h.Load(WatermarkAddr)
	epoch := h.Load(recEpochAddr)
	words := h.Load(recWordsAddr)
	cksum := h.Load(recCksumAddr)
	state := h.Load(recStateAddr)

	valid := words <= uint64(logLimitAddr-logEntriesAddr) &&
		e.logChecksum(epoch, logEntriesAddr+nvm.Addr(words)) == cksum
	if valid {
		switch state & recStateMask {
		case recArmed:
			e.replay(nvm.Addr(words), true)
		case recCommitted:
			if epoch > root {
				e.replay(nvm.Addr(words), false)
				if state&recFinalBit != 0 {
					root = epoch
				}
			}
		}
	}

	h.Store(recEpochAddr, 0)
	h.Store(recWordsAddr, 0)
	h.Store(recCksumAddr, 0)
	h.Store(recStateAddr, recEmpty)
	e.flushWord(recStateAddr)
	h.Store(WatermarkAddr, root)
	e.flushWord(WatermarkAddr)
	e.fence()
	e.watermark.Store(root)
	return root
}

// replay decodes the logged entries and writes their payloads back to
// the heap (volatile view and persistent image both — recovery runs on
// a freshly restarted heap where the two coincide). Undo rollback
// applies entries newest-first so duplicated extents end at their
// oldest pre-image; redo replay applies oldest-first.
func (e *logEngine) replay(words nvm.Addr, reverse bool) {
	h := e.heap
	heapWords := nvm.Addr(h.Words())
	type span struct {
		pos nvm.Addr
		ext nvm.Extent
	}
	var spans []span
	for pos := logEntriesAddr; pos < logEntriesAddr+words; {
		hdr := h.Load(pos)
		a := nvm.Addr(hdr >> 16)
		w := int(hdr & 0xffff)
		if w <= 0 || pos+1+nvm.Addr(w) > logEntriesAddr+words {
			break // defensive: the checksum should have rejected a torn log
		}
		if a < logLimitAddr || a+nvm.Addr(w) > heapWords {
			break // defensive: never replay over the roots or the log itself
		}
		spans = append(spans, span{pos: pos, ext: nvm.Extent{Addr: a, Words: w}})
		pos += 1 + nvm.Addr(w)
	}
	apply := func(s span) {
		for i := 0; i < s.ext.Words; i++ {
			h.Store(s.ext.Addr+nvm.Addr(i), h.Load(s.pos+1+nvm.Addr(i)))
		}
		h.FlushRange(s.ext.Addr, s.ext.Words)
		e.flushes.Add(1)
	}
	if reverse {
		for i := len(spans) - 1; i >= 0; i-- {
			apply(spans[i])
		}
	} else {
		for _, s := range spans {
			apply(s)
		}
	}
}
