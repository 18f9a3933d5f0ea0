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

// TestDeletedMarkOnMediaIsJudgedByJournal: the block does not record when it
// was deleted, so when a stray write-back has carried PRetire's DELETED mark
// to the media, recovery asks the journal whether that deletion persisted.
// The block under test straddles a cache line (offset 6 of 8), its header
// alone on the line the write-back carries.
func TestDeletedMarkOnMediaIsJudgedByJournal(t *testing.T) {
	// retireWithStrayWriteBack persists key 7 in a straddling block, retires
	// it in the active epoch and writes the marked header's line back.
	retireWithStrayWriteBack := func(t *testing.T) (*nvm.Heap, *System, Block) {
		h, s := newManual(t, 1<<16)
		w := s.Register()
		putKV(w, 1, 10)
		putKV(w, 2, 20)
		b := putKV(w, 7, 70)
		if b.Addr()%nvm.LineWords != 6 {
			t.Fatalf("third block of the slab at line offset %d, want 6 (header and key | value)", b.Addr()%nvm.LineWords)
		}
		s.Sync()
		w.BeginOp()
		w.PRetire(b)
		w.EndOp()
		h.Flush(b.Addr())
		if got := palloc.UnpackHeader(h.PersistedLoad(b.Addr())).Status; got != palloc.Deleted {
			t.Fatalf("media header is %v after the write-back, want DELETED", got)
		}
		return h, s, b
	}

	t.Run("crash before the delete epoch persists", func(t *testing.T) {
		h, s, b := retireWithStrayWriteBack(t)
		s.SimulateCrash(nvm.CrashOptions{})
		s2, got := recoverAll(h)
		if len(got) != 3 || got[7] != 70 {
			t.Fatalf("recovered %v, want keys 1, 2 and the resurrected 7 -> 70", got)
		}
		if st := s2.Stats(); st.Resurrected != 1 || st.JournalRecordsApplied != 0 {
			t.Fatalf("%d resurrected, %d journal records applied; want 1, 0", st.Resurrected, st.JournalRecordsApplied)
		}
		if got := palloc.UnpackHeader(h.PersistedLoad(b.Addr())).Status; got != palloc.Allocated {
			t.Fatalf("media header of the resurrected block is %v, want ALLOCATED", got)
		}
	})

	t.Run("crash after it persists", func(t *testing.T) {
		h, s, b := retireWithStrayWriteBack(t)
		s.Sync() // journals the retirement, then frees the block in the view only
		if got := palloc.UnpackHeader(h.PersistedLoad(b.Addr())).Status; got != palloc.Deleted {
			t.Fatalf("media header is %v once the retirement is durable, want DELETED still", got)
		}
		s.SimulateCrash(nvm.CrashOptions{})
		s2, got := recoverAll(h)
		if _, ok := got[7]; ok || len(got) != 2 {
			t.Fatalf("recovered %v, want keys 1 and 2 only", got)
		}
		if st := s2.Stats(); st.Resurrected != 0 || st.JournalRecordsApplied != 1 {
			t.Fatalf("%d resurrected, %d journal records applied; want 0, 1", st.Resurrected, st.JournalRecordsApplied)
		}
	})

	t.Run("crash after the page is recycled", func(t *testing.T) {
		h, s, b := retireWithStrayWriteBack(t)
		for i := 0; i <= JournalK; i++ {
			s.Sync()
		}
		if st := s.Stats(); st.JournalCheckpoints != 1 {
			t.Fatalf("%d checkpoints after the page's recycling, want 1 (the block was not reused)", st.JournalCheckpoints)
		}
		if got := palloc.UnpackHeader(h.PersistedLoad(b.Addr())).Status; got != palloc.Free {
			t.Fatalf("media header is %v after the checkpoint, want FREE", got)
		}
		s.SimulateCrash(nvm.CrashOptions{})
		s2, got := recoverAll(h)
		if _, ok := got[7]; ok || len(got) != 2 {
			t.Fatalf("recovered %v, want keys 1 and 2 only", got)
		}
		if st := s2.Stats(); st.Resurrected != 0 || st.JournalPagesRead != 0 {
			t.Fatalf("%d resurrected, %d journal pages read; want 0, 0 (the page is older than K epochs)", st.Resurrected, st.JournalPagesRead)
		}
	})
}
