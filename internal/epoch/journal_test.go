package epoch

import (
	"testing"

	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

// TestRetirementIsJournaledNotFlushed pins what the journal is for: closing
// an epoch that retired n blocks flushes ⌈n/31⌉ journal pages and none of
// the retired blocks' header lines, whose media copies stay ALLOCATED; the
// deletion is durable all the same, because recovery reads it from the
// journal.
func TestRetirementIsJournaledNotFlushed(t *testing.T) {
	const n = 40
	h, s := newManual(t, 1<<16)
	w := s.Register()
	blocks := make([]Block, n)
	for i := range blocks {
		blocks[i] = putKV(w, uint64(i), uint64(i)+100)
	}
	s.Sync()

	w.BeginOp()
	for _, b := range blocks {
		w.PRetire(b)
	}
	w.EndOp()
	retired := map[uint64]bool{}
	for _, b := range blocks {
		retired[b.Addr().Line()] = true
	}
	var pageLines int
	h.SetPersistHook(func(pt nvm.PersistPoint, a nvm.Addr) {
		if pt != nvm.PointFlush {
			return
		}
		if retired[a.Line()] {
			t.Errorf("closing the retire epoch flushed a retired block's line (%#x)", a)
		}
		for _, area := range s.alloc.JournalSlabs() {
			if a >= area.Addr && a < area.Addr+nvm.Addr(area.Words) {
				pageLines++
			}
		}
	})
	s.AdvanceOnce()
	s.FlushOnce()
	h.SetPersistHook(nil)

	if want := 2 * pageWords / nvm.LineWords; pageLines != want {
		t.Errorf("flushed %d journal lines for %d retirements, want %d (two pages)", pageLines, n, want)
	}
	if st := s.Stats(); st.JournalRecords != n || st.JournalCheckpoints != 0 || st.FreedBlocks != n {
		t.Errorf("stats after the retire epoch: %d records, %d checkpoints, %d freed; want %d, 0, %d",
			st.JournalRecords, st.JournalCheckpoints, st.FreedBlocks, n, n)
	}
	for _, b := range blocks {
		if got := palloc.UnpackHeader(h.PersistedLoad(b.Addr())).Status; got != palloc.Allocated {
			t.Fatalf("media header of retired block %#x is %v, want ALLOCATED (never written back)", b.Addr(), got)
		}
	}

	s.SimulateCrash(nvm.CrashOptions{})
	s2, got := recoverAll(h)
	if len(got) != 0 || s2.Allocator().LiveBlocks() != 0 {
		t.Fatalf("recovered %v (%d live blocks), want nothing: every deletion persisted", got, s2.Allocator().LiveBlocks())
	}
	if st := s2.Stats(); st.JournalPagesRead != 2 || st.JournalRecordsApplied != n || st.JournalPagesErased != 0 {
		t.Fatalf("recovery read %d pages, applied %d records, erased %d pages; want 2, %d, 0",
			st.JournalPagesRead, st.JournalRecordsApplied, st.JournalPagesErased, n)
	}
}

// TestJournalRecordOfEarlierIncarnationJudgesNothing: a block retired,
// reclaimed and reallocated carries a journal record older than its new
// creation epoch; recovery must keep the new incarnation while the old
// record is still on the media.
func TestJournalRecordOfEarlierIncarnationJudgesNothing(t *testing.T) {
	h, s := newManual(t, 1<<16)
	w := s.Register()
	old := putKV(w, 1, 10)
	s.Sync()
	w.BeginOp()
	w.PRetire(old)
	w.EndOp()
	s.Sync() // retirement durable, block reclaimed
	reused := putKV(w, 2, 20)
	if reused.Addr() != old.Addr() {
		t.Fatalf("allocator handed out %#x, want the reclaimed block %#x back", reused.Addr(), old.Addr())
	}
	s.Sync()
	s.SimulateCrash(nvm.CrashOptions{})
	s2, got := recoverAll(h)
	if len(got) != 1 || got[2] != 20 {
		t.Fatalf("recovered %v, want only key 2 -> 20", got)
	}
	if st := s2.Stats(); st.JournalPagesRead != 1 || st.JournalRecordsApplied != 0 {
		t.Fatalf("recovery read %d pages and applied %d records, want 1 and 0 (the record predates the block)",
			st.JournalPagesRead, st.JournalRecordsApplied)
	}
}

// TestRecoverHeapWithoutJournalSlabs: a heap that never retired anything has
// the layout every heap had before the journal existed — block slabs only —
// and recovers, then journals its first retirement.
func TestRecoverHeapWithoutJournalSlabs(t *testing.T) {
	h, s := newManual(t, 1<<16)
	w := s.Register()
	for k := uint64(0); k < 100; k++ {
		putKV(w, k, k+1)
	}
	s.Sync()
	putKV(w, 999, 1) // unsynced tail
	if n := len(s.alloc.JournalSlabs()); n != 0 {
		t.Fatalf("%d journal slabs on a heap that never retired", n)
	}
	s.SimulateCrash(nvm.CrashOptions{EvictFraction: 0.5, Seed: 3})

	var first Block
	s2 := Recover(h, Config{Manual: true}, func(r BlockRecord) {
		if r.Block.Key() == 0 {
			first = r.Block
		}
	})
	if st := s2.Stats(); st.RecoveredLive != 100 || st.JournalPagesRead != 0 || st.JournalPagesErased != 0 {
		t.Fatalf("recovered %d live blocks, read %d journal pages, erased %d; want 100, 0, 0",
			st.RecoveredLive, st.JournalPagesRead, st.JournalPagesErased)
	}
	w2 := s2.Register()
	w2.BeginOp()
	w2.PRetire(first)
	w2.EndOp()
	s2.Sync()
	if n := len(s2.alloc.JournalSlabs()); n != 1 {
		t.Fatalf("%d journal slabs after the first retirement, want 1", n)
	}
	s2.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	if _, ok := got[0]; ok || len(got) != 99 {
		t.Fatalf("recovered %d keys (key 0 present: %v), want 99 without key 0", len(got), ok)
	}
}
