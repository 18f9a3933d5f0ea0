package epoch

import (
	"testing"

	"bdhtm/internal/htm"
	"bdhtm/internal/palloc"
)

// link runs one complete fresh insert of key k through the bracket and
// returns the block it linked.
func link(t *testing.T, w *Worker, tm *htm.TM, k, v uint64) Block {
	t.Helper()
	op := w.BeginInsert(0, KVPayloadWords, k, v)
	if res := op.Run(tm, nil, func(tx *htm.Tx) { op.Link(tx, k) }); !res.Committed {
		t.Fatalf("link %d: %+v", k, res)
	}
	b := op.Tracked()
	if found := op.End(); found {
		t.Fatalf("link %d reported a found key", k)
	}
	return b
}

// An attempt that decided to replace or remove a block and then failed at
// commit leaves nothing behind: the retry decides an in-place update, and
// End applies that decision only — nothing retired, the spare neither
// consumed nor stamped (an invalid epoch on the media would otherwise be a
// phantom insert at recovery, DESIGN §6 pitfalls 1 and 4).
func TestFailedAttemptDecisionsAreForgotten(t *testing.T) {
	for _, first := range []string{"Revise", "Unlink"} {
		t.Run(first, func(t *testing.T) {
			h, s := newManual(t, 1<<16)
			tm := htm.New(htm.Config{})
			w := s.Register()
			old := link(t, w, tm, 1, 10) // epoch e
			s.AdvanceOnce()
			cur := link(t, w, tm, 2, 20) // epoch e+1
			retiredBefore := s.Stats().RetiredBlocks

			var guard uint64
			op := w.BeginInsert(0, KVPayloadWords, 2, 30)
			spare := op.Spare()
			attempts := 0
			res := op.Run(tm, nil, func(tx *htm.Tx) {
				attempts++
				if attempts == 1 {
					if first == "Revise" {
						op.Revise(tx, old, 30) // older: replace by the spare, retire old
					} else {
						op.Unlink(tx, 1, old)
					}
					tx.Load(&guard)
					tm.DirectStore(&guard, 1) // the commit fails: a conflict
					return
				}
				op.Revise(tx, cur, 30) // same epoch: in place
			})
			if !res.Committed || attempts != 2 {
				t.Fatalf("result %+v after %d attempts, want a commit on the second", res, attempts)
			}
			if found := op.End(); !found {
				t.Fatal("End: the in-place update did not report the key found")
			}
			if r := s.Stats().RetiredBlocks - retiredBefore; r != 0 {
				t.Fatalf("%d blocks retired, want 0", r)
			}
			if st := palloc.UnpackHeader(h.Load(old.Addr())).Status; st != palloc.Allocated {
				t.Fatalf("the failed attempt's victim has status %v", st)
			}
			if e := palloc.UnpackHeader(h.Load(spare.Addr())).Epoch; e != palloc.InvalidEpoch {
				t.Fatalf("spare header epoch %d after an in-place commit, want InvalidEpoch", e)
			}
			if w.spare != spare {
				t.Fatal("the spare was consumed by an in-place commit")
			}
			if v := cur.Value(); v != 30 {
				t.Fatalf("in-place value %d, want 30", v)
			}
		})
	}
}

// An OldSeeNew abort restarts the operation in the current epoch: the
// aborted attempt's decisions go, nothing lands in the old epoch's
// buffers, and the restarted attempt's track lands in the new one's.
func TestOldSeeNewRestartsInTheCurrentEpoch(t *testing.T) {
	_, s := newManual(t, 1<<16)
	tm := htm.New(htm.Config{})
	w, w2 := s.Register(), s.Register()

	op := w.BeginInsert(0, KVPayloadWords, 5, 50)
	e := w.OpEpoch()
	spare := op.Spare()
	victim := link(t, w2, tm, 6, 60) // epoch e
	s.AdvanceOnce()
	newer := link(t, w2, tm, 5, 40) // epoch e+1, under w's feet

	persistBefore := len(w.bufs[e%numSlots].persist.items)
	retiredBefore := s.Stats().RetiredBlocks
	attempts := 0
	res := op.Run(tm, nil, func(tx *htm.Tx) {
		attempts++
		switch attempts {
		case 1:
			op.Unlink(tx, 6, victim) // a decision the abort below must drop
		case 3:
			tx.Abort(0x77) // the restart did not move to the current epoch
		}
		op.Revise(tx, newer, 50)
	})
	if !res.Committed || attempts != 2 {
		t.Fatalf("result %+v after %d attempts, want a commit on the second", res, attempts)
	}
	if got := w.OpEpoch(); got != e+1 {
		t.Fatalf("restarted in epoch %d, want %d", got, e+1)
	}
	op.End()
	if n := len(w.bufs[e%numSlots].persist.items); n != persistBefore {
		t.Fatalf("epoch %d buffer grew by %d tracks from an aborted attempt", e, n-persistBefore)
	}
	if got := w.bufs[(e+1)%numSlots].persist.items; len(got) != 1 || got[0] != newer.Addr() {
		t.Fatalf("epoch %d tracks %v, want just the revised block %d", e+1, got, newer.Addr())
	}
	if r := s.Stats().RetiredBlocks - retiredBefore; r != 0 {
		t.Fatalf("%d blocks retired by the aborted attempt's Unlink", r)
	}
	if w.spare != spare || spare.Epoch() != palloc.InvalidEpoch {
		t.Fatal("the spare was consumed or stamped by an in-place commit")
	}
	if newer.Value() != 50 {
		t.Fatalf("value %d, want 50", newer.Value())
	}
}

// A worker serving structures of two block shapes swaps its one spare when
// the shape changes and deletes the old one: the live block count does
// not grow.
func TestSpareSwapsShapeWithoutLeaking(t *testing.T) {
	_, s := newManual(t, 1<<16)
	w := s.Register()
	shapes := []struct {
		tag   uint8
		words int
	}{{0x11, KVPayloadWords}, {0x22, KVPayloadWords}, {0x22, 5}}
	var live int64
	for i := 0; i < 30; i++ {
		sh := shapes[i%len(shapes)]
		op := w.BeginInsert(sh.tag, sh.words, uint64(i), 7)
		b := op.Spare()
		if b.Tag() != sh.tag || b.PayloadWords() < sh.words {
			t.Fatalf("op %d: spare of tag %#x, %d words; want %#x, %d", i, b.Tag(), b.PayloadWords(), sh.tag, sh.words)
		}
		if b.Key() != uint64(i) || b.Load(sh.words-1) != 7 {
			t.Fatalf("op %d: spare not initialised", i)
		}
		op.Abort()
		n := s.Allocator().LiveBlocks()
		if i == 0 {
			live = n
		} else if n != live {
			t.Fatalf("op %d: %d live blocks, want %d", i, n, live)
		}
	}
}
