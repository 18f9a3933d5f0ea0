package crashfuzz

import (
	"fmt"
	"testing"

	"bdhtm/internal/epoch"
	"bdhtm/internal/nvm"
	"bdhtm/internal/palloc"
)

// The torn-line adversary: the cache at its worst, deterministically. A KV
// block is three words packed densely, so two blocks in eight straddle a
// cache line and two in thirty-two an XPLine, and nothing but the protocol
// — "a block counts when its header epoch is at most P, and every epoch at
// most P was flushed whole before P moved" — stands between a half-written
// block and the recovered state. For every operation of a scripted
// single-writer run and every heap store i that operation performs, the
// sweep writes the stored-to line back right after store i (the heap's
// store hook; the tear no persist event marks), power-fails at each persist
// event from there to the end of the script, recovers with the recovery
// itself power-failed at a drawn persist event, and checks for the exact
// end-of-epoch-P prefix.
//
// The scripts put the swept operations on the blocks that straddle: slab
// offsets 6 and 7 of 8 (header and key | value; header | key and value) and
// the two that cross an XPLine — created, replaced in place and out of
// place, retired, and reused while the journal still holds the earlier
// incarnation's record.
//
// Mutation check (each verified to fail this sweep within seconds, the first
// failing cell in under a second; none is this sweep's alone to catch — a
// quarter of all blocks straddle and every fuzzed crash with evictions
// resurrects — but here the tear is placed, not drawn, and evict 0 shows it
// without an eviction lottery):
//
//	(a) runTask and the early pass write Extent{b, 2} for a tracked block
//	    instead of the whole block
//	    -> the two reuse cells: the value word of a block at offset 6 sits
//	       on a line no neighbour flushes in that epoch and is lost ("key
//	       50: got … want …");
//	(b) PR 18's phantom prealloc: bdhash.Insert stamps the preallocated
//	    block before insertBody instead of in the branches that link it
//	    -> the straddle/bdhash cell: the same-epoch update leaves an
//	       unlinked, validly stamped block in the view, and a write-back
//	       carries it to the media ("key 42: phantom value");
//	(c) Recover's DELETED branch reclaims without consulting the journal
//	    -> both straddle cells, at the first tear, evict 0: the
//	       write-back after PRetire's mark, a crash before the delete epoch
//	       persists, and the key whose removal was rolled back is gone
//	       ("key 2: lost value").

// tornScript is one sweep scenario: prefix runs unobserved, every store of
// every operation of swept is a tear point, and every persist event from a
// tear to the end of tail a crash point.
type tornScript struct {
	name   string
	prefix []scriptStep
	swept  []scriptStep
	tail   []scriptStep
	// check inspects the heap after an uncrashed prefix+swept run, so that
	// the sweep cannot quietly stop covering the geometry it is for.
	check func(t *testing.T, sys *epoch.System)
}

// Block i of the data slab sits at slab offset 8+3i, and the prefix of both
// scripts puts key k into block k. The straddlers the scripts use:
const (
	blkLine6 = 2  // offset 14: header, key | value
	blkLine7 = 5  // offset 23: header | key, value
	blkXP30  = 18 // offset 62: header, key || value across an XPLine
	blkXP31  = 29 // offset 95: header || key, value across an XPLine
	blkNext6 = 42 // offset 134, the second block allocated after the prefix
)

var tornScripts = []tornScript{
	{
		// One epoch on the straddlers in place: retire one across a line and
		// one across an XPLine, replace one out of place (into block 41),
		// create one at offset 6 (block 42), update it in the same epoch —
		// the value word is alone on the second line, the preallocated block
		// stays unused — and retire it in the epoch that created it.
		name:   "straddle",
		prefix: []scriptStep{puts(0, 40), adv, adv},
		swept: []scriptStep{
			dels(blkLine6, blkLine6), dels(blkXP31, blkXP31), puts(blkLine7, blkLine7),
			puts(blkNext6, blkNext6), puts(blkNext6, blkNext6), dels(blkNext6, blkNext6),
		},
		tail: []scriptStep{adv, adv},
		check: func(t *testing.T, sys *epoch.System) {
			wantBlocks(t, sys, map[uint64]int{blkLine7: 41})
			if st := sys.Stats(); st.RetiredBlocks != 4 {
				t.Fatalf("script retired %d blocks, want 4", st.RetiredBlocks)
			}
		},
	},
	{
		// The two XPLine straddlers are retired and reclaimed in the prefix;
		// the swept inserts reuse them — creating a block at offset 6 and
		// one at offset 7 over an earlier incarnation whose journal record
		// is still on the media — and one is retired again.
		name: "reuse",
		prefix: []scriptStep{
			puts(0, 39), adv, adv,
			dels(blkXP31, blkXP31), dels(blkXP30, blkXP30), adv, adv,
		},
		swept: []scriptStep{puts(50, 51), dels(51, 51)},
		tail:  []scriptStep{adv, adv},
		check: func(t *testing.T, sys *epoch.System) {
			wantBlocks(t, sys, map[uint64]int{50: blkXP30})
			if st := sys.Stats(); st.FreedBlocks != 2 || st.RetiredBlocks != 3 {
				t.Fatalf("prefix freed %d and the script retired %d blocks, want 2 and 3", st.FreedBlocks, st.RetiredBlocks)
			}
		},
	},
}

// wantBlocks checks that the live block holding each key is the given block
// of the data slab, and that block i does sit at offset 8+3i of a slab.
func wantBlocks(t *testing.T, sys *epoch.System, want map[uint64]int) {
	t.Helper()
	found := 0
	sys.Allocator().Scan(func(bi palloc.BlockInfo) {
		if bi.Header.Status != palloc.Allocated {
			return
		}
		i, ok := want[sys.Heap().Load(palloc.Payload(bi.Addr))]
		if !ok {
			return
		}
		found++
		if got := bi.Addr % 4096; got != nvm.Addr(8+3*i) {
			t.Fatalf("block %d at slab offset %d, want block %d's %d", bi.Addr, got, i, 8+3*i)
		}
	})
	if found != len(want) {
		t.Fatalf("found %d of the %d blocks whose placement the script depends on", found, len(want))
	}
}

// singleOps expands key ranges into one step per operation.
func singleOps(steps []scriptStep) []scriptStep {
	var ops []scriptStep
	for _, st := range steps {
		if st.kind == stepAdvance {
			ops = append(ops, st)
			continue
		}
		for k := st.lo; k <= st.hi; k++ {
			ops = append(ops, scriptStep{st.kind, k, k})
		}
	}
	return ops
}

// TestTornLineSweep runs every script under both subjects with a
// record-per-key block layout, the flusher schedule alternating from one
// cell to the next, and one early write-back step among the swept operations at a
// point drawn from the cell's index. Short mode — the race lane, where a
// run costs some thirty times more — keeps the torn-line eviction fraction
// and every sixteenth crash point, from an offset that differs from one
// tear to the next.
func TestTornLineSweep(t *testing.T) {
	evicts, stride := []float64{0, 0.5, 1}, 1
	if testing.Short() {
		evicts, stride = []float64{0.5}, 16
	}
	cell := 0
	for _, sc := range tornScripts {
		for _, subject := range []string{"bdhash", "skiplist"} {
			sc, subject, async, draw := sc, subject, cell&1, uint64(cell)
			cell++
			t.Run(fmt.Sprintf("%s/%s/async=%d", sc.name, subject, async), func(t *testing.T) {
				t.Parallel()
				base := RoundParams{
					Subject: subject, Seed: 0x7042e + uint64(async),
					Workers: 1, KeySpace: 64, CrashEvents: 1,
					Async: async,
				}
				tears, points := sweepTorn(t, base, sc, evicts, stride, draw)
				t.Logf("%d tears, %d crash points x %d eviction fractions", tears, points, len(evicts))
			})
		}
	}
}

// sweepTorn tears sc after every store of every swept operation and, for
// each tear, crashes at its n-th later persist event for n = first,
// first+stride, … until the script runs out of events, at every eviction
// fraction. It returns the number of tears and of crash points.
func sweepTorn(t *testing.T, base RoundParams, sc tornScript, evicts []float64, stride int, draw uint64) (tears, points int) {
	swept, tail := withEarly(singleOps(sc.swept), draw), sc.tail
	if base.Async == 0 {
		tail = append(tail[:len(tail):len(tail)], adv) // the lagging flusher's last task
	}
	start := func(p RoundParams) *session {
		s := openSession(t, p, 4*4096) // roots and log, one data slab, one journal slab, one to spare
		if err := s.play(sc.prefix); err != nil {
			t.Fatalf("prefix: %v", err)
		}
		return s
	}

	// An uncrashed run counts the stores of each swept operation.
	clean := start(base)
	stores := make([]int, len(swept))
	for j, op := range swept {
		clean.sub.Heap().SetStoreHook(func(nvm.Addr) { stores[j]++ })
		if err := clean.play([]scriptStep{op}); err != nil {
			t.Fatalf("uncrashed run: %v", err)
		}
	}
	clean.sub.Heap().SetStoreHook(nil)
	sc.check(t, epochSystem(clean.sub))

	for j := range swept {
		for i := 1; i <= stores[j]; i++ {
			tears++
			for n := 1 + (tears*5)%stride; ; n += stride {
				crashedAny := false
				for ei, evict := range evicts {
					p := base
					p.Seed = Mix(base.Seed, uint64(j)<<24|uint64(i)<<16|uint64(n)<<2|uint64(ei))
					p.Evict = evict
					fail := func(stage string, err error) {
						t.Helper()
						t.Fatalf("tear after store %d of swept op %d (%+v), crash at persist event %d from there, evict %.1f, %s: %v",
							i, j, swept[j], n, evict, stage, err)
					}

					s := start(p)
					crashed, err := catchCrash(func() error {
						if err := s.play(swept[:j]); err != nil {
							return err
						}
						s.tearAfterStore(i, n)
						if err := s.play(swept[j:]); err != nil {
							return err
						}
						return s.play(tail)
					})
					if err != nil {
						fail("script", err)
					}
					if !crashed {
						s.sub.Heap().SetPersistHook(nil)
						continue
					}
					crashedAny = true
					s.recoverStep = 1 + int(Mix(p.Seed, 0x5e)%24)
					if err := s.crashCheck(true); err != nil {
						fail("recovery", err)
					}
				}
				if !crashedAny {
					break
				}
				points++
			}
		}
	}
	return tears, points
}

// tearAfterStore arms the adversary: right after the i-th heap store from
// now the line stored to is written back, and the n-th persist event after
// that write-back is a power failure.
func (s *session) tearAfterStore(i, n int) {
	h := s.sub.Heap()
	h.SetStoreHook(func(a nvm.Addr) {
		if i--; i == 0 {
			h.SetStoreHook(nil)
			h.Flush(a)
			s.armHook(n)
		}
	})
}
