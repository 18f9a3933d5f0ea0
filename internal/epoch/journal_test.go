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

// mediaPages returns the journal pages whose header on the media names
// epoch x.
func mediaPages(s *System, x uint64) (pages []nvm.Addr) {
	for _, area := range s.alloc.JournalSlabs() {
		for p := area.Addr; p < area.Addr+nvm.Addr(area.Words); p += pageWords {
			if s.heap.PersistedLoad(p) == pageMagic|x {
				pages = append(pages, p)
			}
		}
	}
	return pages
}

// journalLines counts the journal-slab lines flushed while fn runs.
func journalLines(s *System, fn func()) (lines int) {
	areas := s.alloc.JournalSlabs()
	s.heap.SetPersistHook(func(pt nvm.PersistPoint, a nvm.Addr) {
		for _, area := range areas {
			if pt == nvm.PointFlush && a >= area.Addr && a < area.Addr+nvm.Addr(area.Words) {
				lines++
			}
		}
	})
	defer s.heap.SetPersistHook(nil)
	fn()
	return lines
}

// retireAll retires bs in one operation of the open epoch.
func retireAll(w *Worker, bs []Block) {
	w.BeginOp()
	for _, b := range bs {
		w.PRetire(b)
	}
	w.EndOp()
}

// TestEarlyPassJournalsWholePages: an early pass of the open epoch x writes
// the whole pages x's published retirements fill — one page of 31 records,
// of 40 — with no fence and without moving the watermark, and the close
// journals only the other 9, in one page. A crash before x commits erases
// the early page with the rest of x; a crash after it applies its records.
func TestEarlyPassJournalsWholePages(t *testing.T) {
	const n = 40
	pageLines := pageWords / nvm.LineWords
	// retireEarly persists keys 0..n, retires key n in an epoch of its own
	// (which formats the journal slab), then retires keys 0..n-1 in epoch x
	// and takes an early pass.
	retireEarly := func(t *testing.T) (*nvm.Heap, *System, uint64) {
		h, s := newManual(t, 1<<16)
		w := s.Register()
		blocks := make([]Block, n+1)
		for i := range blocks {
			blocks[i] = putKV(w, uint64(i), uint64(i)+100)
		}
		s.Sync()
		retireAll(w, blocks[n:])
		s.Sync()

		x := s.GlobalEpoch()
		retireAll(w, blocks[:n])
		fences, p := h.Stats().Fences, s.PersistedEpoch()
		if lines := journalLines(s, s.FlushEarly); lines != pageLines {
			t.Fatalf("early pass flushed %d journal lines, want %d (one page)", lines, pageLines)
		}
		if d := h.Stats().Fences - fences; d != 0 || s.PersistedEpoch() != p {
			t.Fatalf("early pass issued %d fences and moved the watermark %d -> %d", d, p, s.PersistedEpoch())
		}
		pages := mediaPages(s, x)
		if len(pages) != 1 {
			t.Fatalf("%d pages of epoch %d on the media after the early pass, want 1", len(pages), x)
		}
		for i := 1; i < pageWords; i++ {
			if _, ok := unpackRecord(h.PersistedLoad(pages[0]+nvm.Addr(i)), x); !ok {
				t.Fatalf("record %d of the early page is not on the media", i)
			}
		}
		if st := s.Stats(); st.JournalRecords != 1+pageRecords || st.JournalEarlyRecords != pageRecords || st.EarlyFlushedBlocks != 0 {
			t.Fatalf("after the early pass: %d journal records, %d of them early, %d early blocks; want %d, %d and 0",
				st.JournalRecords, st.JournalEarlyRecords, st.EarlyFlushedBlocks, 1+pageRecords, pageRecords)
		}
		return h, s, x
	}

	t.Run("the close journals the rest", func(t *testing.T) {
		_, s, x := retireEarly(t)
		s.AdvanceOnce()
		if lines := journalLines(s, s.FlushOnce); lines != pageLines {
			t.Fatalf("the close flushed %d journal lines, want %d (one page)", lines, pageLines)
		}
		if pages := mediaPages(s, x); len(pages) != 2 {
			t.Fatalf("%d pages of epoch %d on the media after the close, want 2", len(pages), x)
		}
		if st := s.Stats(); st.JournalRecords != 1+n || st.FreedBlocks != 1+n {
			t.Fatalf("after the close: %d records, %d freed; want %d and %d", st.JournalRecords, st.FreedBlocks, 1+n, 1+n)
		}
	})

	t.Run("crash before x commits", func(t *testing.T) {
		h, s, x := retireEarly(t)
		s.SimulateCrash(nvm.CrashOptions{})
		s2, got := recoverAll(h)
		if len(got) != n {
			t.Fatalf("recovered %d keys, want the %d whose retirement never committed", len(got), n)
		}
		if st := s2.Stats(); st.JournalPagesErased != 1 {
			t.Fatalf("recovery erased %d pages, want the early one", st.JournalPagesErased)
		}
		if pages := mediaPages(s2, x); len(pages) != 0 {
			t.Fatalf("%d pages of the rolled-back epoch %d left on the media", len(pages), x)
		}
	})

	t.Run("crash after x commits", func(t *testing.T) {
		h, s, _ := retireEarly(t)
		s.Sync()
		s.SimulateCrash(nvm.CrashOptions{})
		s2, got := recoverAll(h)
		if len(got) != 0 {
			t.Fatalf("recovered %v, want nothing: every retirement committed", got)
		}
		if st := s2.Stats(); st.JournalRecordsApplied != n+1 {
			t.Fatalf("recovery applied %d records, want %d", st.JournalRecordsApplied, n+1)
		}
	})
}

// TestEarlyPagesJoinTheLiveListInEpochOrder is invariant 1 of early pages
// (journal.go): an early pass of x taken while task x−1 is still pending
// writes a page of x before x−1's pages exist, and that page must not join
// the live list ahead of them. If it did, recycling — oldest first, stopping
// at the first page too young — would pass x−1's page over when its turn
// came; once the watermark is K past x−1 recovery no longer reads the page,
// and the blocks it retired, never checkpointed, come back.
func TestEarlyPagesJoinTheLiveListInEpochOrder(t *testing.T) {
	const n, kept = 10, 5
	h, s := newManual(t, 1<<16)
	w := s.Register()
	blocks := make([]Block, n+pageRecords+kept)
	for i := range blocks {
		blocks[i] = putKV(w, uint64(i), uint64(i))
	}
	s.Sync()
	retireAll(w, blocks[:n]) // epoch x−1
	s.AdvanceOnce()          // x−1 pending, its task not run
	retireAll(w, blocks[n:n+pageRecords])
	s.FlushEarly() // a whole page of x
	s.FlushOnce()  // task x−1 writes its page
	for i := 0; i < JournalK; i++ {
		s.Sync() // the second recycles x−1's page, the third commits its checkpoints
	}
	if st := s.Stats(); st.JournalCheckpoints != n {
		t.Fatalf("%d checkpoints, want x−1's %d records checkpointed when its page was recycled", st.JournalCheckpoints, n)
	}
	s.SimulateCrash(nvm.CrashOptions{})
	if _, got := recoverAll(h); len(got) != kept {
		t.Fatalf("recovered %d keys, want the %d never retired: %v", len(got), kept, got)
	}
}

// TestEarlyPagesComeFromFreeNotCooling is invariant 2 of early pages
// (journal.go): a page the next commit recycles waits in cooling, its
// records judging the media until the checkpoints that replace them are
// durable, and an early pass must not write over it. Here the recycled
// page's blocks sit in a data slab above the journal slab, so the early
// pass's batch — flushed in address order — lands its new page before the
// checkpoints, and the power fails in between.
func TestEarlyPagesComeFromFreeNotCooling(t *testing.T) {
	h, s := newManual(t, 1<<16)
	w := s.Register()
	retireAll(w, []Block{putKV(w, 0, 0)})
	s.Sync() // formats the journal slab after the first data slab
	area := s.alloc.JournalSlabs()[0]
	end := area.Addr + nvm.Addr(area.Words)
	var fillers, victims []Block
	for k := uint64(1); len(victims) < pageRecords; k++ {
		if b := putKV(w, k, k); b.Addr() < end {
			fillers = append(fillers, b)
		} else {
			victims = append(victims, b)
		}
	}
	s.Sync()
	retireAll(w, victims)
	for i := 0; i < JournalK; i++ {
		s.Sync()
	}
	if j := &s.journal; len(j.cooling) != 1 || len(j.checkpoints) != pageRecords {
		t.Fatalf("%d pages cooling with %d checkpoints planned, want the victims' page and its %d records",
			len(j.cooling), len(j.checkpoints), pageRecords)
	}

	type powerFailure struct{}
	retireAll(w, fillers[:pageRecords])
	h.SetPersistHook(func(pt nvm.PersistPoint, a nvm.Addr) {
		if pt == nvm.PointFlush && a >= end {
			panic(powerFailure{}) // the first checkpoint line
		}
	})
	func() {
		defer func() {
			if r := recover(); r != (powerFailure{}) {
				t.Fatalf("early pass ended with %v, want the power failure", r)
			}
		}()
		s.FlushEarly()
	}()
	h.SetPersistHook(nil)
	s.SimulateCrash(nvm.CrashOptions{})
	if _, got := recoverAll(h); len(got) != len(fillers) {
		t.Fatalf("recovered %d keys, want the %d fillers and none of the %d victims retired K epochs ago",
			len(got), len(fillers), len(victims))
	}
}

// TestEarlyCheckpointsAreTheNextCommits is invariant 3 of early pages
// (journal.go): an early pass writes the checkpoints planned for the commit
// that recycles their pages, that commit skips them, and the plan after it
// starts afresh — its own checkpoints are the next commit's to write.
func TestEarlyCheckpointsAreTheNextCommits(t *testing.T) {
	const n, kept = 10, 5
	h, s := newManual(t, 1<<16)
	w := s.Register()
	blocks := make([]Block, 2*n+kept)
	for i := range blocks {
		blocks[i] = putKV(w, uint64(i), uint64(i))
	}
	s.Sync()
	retireAll(w, blocks[:n]) // epoch a
	s.Sync()
	retireAll(w, blocks[n:2*n]) // epoch a+1
	s.Sync()
	s.Sync() // plans a's page for the commit of a+3, the open epoch
	s.FlushEarly()
	if st := s.Stats(); st.JournalCheckpoints != n {
		t.Fatalf("early pass wrote %d checkpoints, want a's %d", st.JournalCheckpoints, n)
	}
	s.Sync() // commits a+3 and plans a+1's page for a+4
	s.Sync() // commits a+4 with a+1's checkpoints
	if st := s.Stats(); st.JournalCheckpoints != 2*n {
		t.Fatalf("%d checkpoints, want %d: a's early and a+1's at the close", st.JournalCheckpoints, 2*n)
	}
	s.SimulateCrash(nvm.CrashOptions{})
	if _, got := recoverAll(h); len(got) != kept {
		t.Fatalf("recovered %d keys, want the %d never retired: %v", len(got), kept, got)
	}
}

// TestTornPageRecordsOfAnotherEpochJudgeNothing: a recycled page is
// rewritten a line at a time, so a crash can land the new header over
// lines still holding the old epoch's records. Here a page of retire epoch
// a has its header line rewritten for epoch P, while its other lines keep
// a's records — of blocks since reclaimed and reallocated, their new
// creations durable at P. Those records carry a's tag, not P's: recovery
// must ignore them and keep every new incarnation. Read as P's, they would
// reclaim live blocks.
func TestTornPageRecordsOfAnotherEpochJudgeNothing(t *testing.T) {
	const n = 40
	h, s := newManual(t, 1<<16)
	w := s.Register()
	blocks := make([]Block, n)
	for i := range blocks {
		blocks[i] = putKV(w, uint64(i), 1)
	}
	s.Sync()
	a := s.GlobalEpoch()
	retireAll(w, blocks)
	s.Sync() // a's retirements durable, the blocks reclaimed
	reclaimed := map[nvm.Addr]bool{}
	for _, b := range blocks {
		reclaimed[b.Addr()] = true
	}
	for i := range blocks {
		if b := putKV(w, uint64(100+i), 2); !reclaimed[b.Addr()] {
			t.Fatalf("allocator handed out %#x, not a reclaimed block", b.Addr())
		}
	}
	s.Sync()
	p := s.PersistedEpoch()
	pages := mediaPages(s, a)
	if len(pages) == 0 {
		t.Fatalf("no journal page of epoch %d on the media", a)
	}
	page := pages[0]
	stale := 0
	for r := nvm.LineWords; r < pageWords; r++ {
		if _, ok := unpackRecord(h.PersistedLoad(page+nvm.Addr(r)), a); ok {
			stale++
		}
	}
	if stale == 0 {
		t.Fatalf("page %#x holds no records of epoch %d past its first line", page, a)
	}
	// The torn rewrite: P's header and an empty first line reach the
	// media, the page's other lines still hold a's records.
	h.Store(page, pageMagic|p)
	for r := 1; r < nvm.LineWords; r++ {
		h.Store(page+nvm.Addr(r), 0)
	}
	h.Flush(page)
	h.Fence()

	s.SimulateCrash(nvm.CrashOptions{})
	_, got := recoverAll(h)
	if len(got) != n {
		t.Fatalf("recovered %d keys, want the %d new incarnations (%d stale records of epoch %d under a header of %d)",
			len(got), n, stale, a, p)
	}
	for i := 0; i < n; i++ {
		if got[uint64(100+i)] != 2 {
			t.Fatalf("key %d lost or wrong after recovery: %v", 100+i, got)
		}
	}
}
