package crashfuzz

import (
	"fmt"
	"testing"

	"bdhtm/internal/durability"
	"bdhtm/internal/epoch"
)

// The retire-journal crash sweep: scripted single-writer runs that take the
// journal through everything it does — a page boundary, a first and a
// second journal slab, recycling pages whose records were superseded by a
// reallocation and pages whose records were not, rewriting a recycled page
// — power-failed at every persist event of the script. Each crash point is
// recovered with the recovery itself power-failed part-way, checked for the
// exact end-of-epoch-P prefix, run up to two more epochs, crashed — at a
// persist event again, or after them — and checked again.
//
// Mutation check (each verified to fail this test within seconds; the
// fuzz suite as it stood passed every one of them, since no round lived
// K epochs past a retirement):
//
//	(a) journalEpoch never queues the checkpoint extent
//	    -> recycle: a block retired, reclaimed and not yet reused comes
//	       back once its page has been rewritten (phantom key);
//	(b) planRecycle appends recycled pages to free instead of cooling
//	    -> recycle: the page is rewritten in the batch that carries its
//	       checkpoints; a crash inside the batch loses both;
//	(c) recoverJournal skips pages above P instead of erasing them
//	    -> both scripts, at the second crash: the rolled-back page reads as
//	       valid once the watermark has passed its epoch (lost keys);
//	(d) unpackRecord ignores the tag
//	    -> recycle, at the second crash, evict 0.5: a page of the old
//	       journal, its header still valid, under record lines the
//	       recovered system was writing when it died, retires blocks whose
//	       removal never persisted (lost keys).

type scriptStep struct {
	kind   int // 0 upsert, 1 remove (session.op kinds); -1 epoch advance; -2 early write-back
	lo, hi uint64
}

const (
	stepAdvance = -1
	stepEarly   = -2
)

func puts(lo, hi uint64) scriptStep { return scriptStep{0, lo, hi} }
func dels(lo, hi uint64) scriptStep { return scriptStep{1, lo, hi} }

var (
	adv   = scriptStep{kind: stepAdvance}
	early = scriptStep{kind: stepEarly}
)

// withEarly inserts an early write-back step into steps at a point drawn
// from seed.
func withEarly(steps []scriptStep, seed uint64) []scriptStep {
	at := int(Mix(seed, 0xea) % uint64(len(steps)+1))
	return append(steps[:at:at], append([]scriptStep{early}, steps[at:]...)...)
}

func (s *session) play(steps []scriptStep) error {
	for _, st := range steps {
		switch st.kind {
		case stepAdvance:
			s.advance()
			continue
		case stepEarly:
			s.sub.Early()
			continue
		}
		for k := st.lo; k <= st.hi; k++ {
			if err := s.op(st.kind, k); err != nil {
				return err
			}
		}
	}
	return nil
}

// epochSystem reaches the epoch system under a swept subject.
func epochSystem(sub Subject) *epoch.System {
	return sub.(*bufferedSubject).st.Sys
}

// retireJunk allocates and retires n blocks no structure ever saw, in one
// operation of the active epoch: journal traffic at the price of two stores
// a block. They are born with an invalid epoch, so no recovery keeps them.
func retireJunk(sub Subject, n int) {
	sys := epochSystem(sub)
	w := sys.Register()
	defer sys.Release(w)
	w.BeginOp()
	for i := 0; i < n; i++ {
		w.PRetire(w.PNew(epoch.KVPayloadWords, 0xff))
	}
	w.EndOp()
}

// journalScript is one sweep scenario on a heap of heapWords: prefix runs
// unobserved, then every persist event of window is a crash point.
// lagAdvances more advances end the window when the flusher step lags
// (async=0), so that both schedules stop after the same flush task.
type journalScript struct {
	name        string
	heapWords   int
	prefix      func(s *session) error
	window      []scriptStep
	lagAdvances int
	// check inspects an uncrashed run, so that the sweep cannot quietly
	// stop covering what it is for; earlyRecords is how many records the
	// run's early write-back steps journaled.
	check func(t *testing.T, sys *epoch.System, earlyRecords int64)
}

var journalScripts = []journalScript{
	{
		// 3K+5 epochs; the first, which formats the data slab, is the
		// prefix. Epoch 2 retires 33 blocks and takes an early write-back
		// step, which journals a whole page of them ahead of the close (the
		// close journals the other two in a second page, and with async=0
		// the step runs while the prefix's task is still pending); the
		// epochs after it reuse a few of the reclaimed blocks,
		// so that at its recycling (task 5) some records are superseded and
		// most are still stale; epoch 6 retires 12 blocks into the page that
		// recycling just released, the rewrite's second line included; the
		// rest keep retiring a little so that every later task recycles,
		// checkpoints and rewrites too.
		name:      "recycle",
		heapWords: 4 * 4096, // roots and log, one data slab, one journal slab, one to spare
		prefix:    func(s *session) error { return s.play([]scriptStep{puts(0, 39), adv}) },
		window: []scriptStep{
			puts(0, 32), early, adv,
			puts(33, 36), dels(37, 37), adv,
			puts(0, 2), adv,
			puts(3, 4), puts(40, 41), adv,
			puts(5, 16), adv,
			dels(17, 20), adv,
			puts(0, 1), adv,
			puts(37, 37), puts(21, 22), adv,
			puts(23, 23), adv,
			dels(0, 0), adv,
			puts(1, 1), adv,
			adv, adv,
		},
		lagAdvances: 1,
		check: func(t *testing.T, sys *epoch.System, earlyRecords int64) {
			st := sys.Stats()
			if st.JournalRecords < 60 || st.JournalCheckpoints == 0 || st.JournalCheckpoints >= st.JournalRecords {
				t.Fatalf("script journaled %d records and checkpointed %d: want both superseded and checkpointed records",
					st.JournalRecords, st.JournalCheckpoints)
			}
			if earlyRecords < 31 {
				t.Fatalf("early steps journaled %d records: want at least a whole page (31) written early", earlyRecords)
			}
			if n := len(sys.Allocator().JournalSlabs()); n != 1 {
				t.Fatalf("script formatted %d journal slabs, want 1 (pages are reused)", n)
			}
		},
	},
	{
		// The prefix fills every page of the first journal slab in one
		// epoch; the window's retirements then find no free page and format
		// the second slab while the first is full of live pages. The window
		// ends before that burst is recycled.
		name:      "second-slab",
		heapWords: DefaultHeapWords,
		prefix: func(s *session) error {
			if err := s.play([]scriptStep{puts(0, 19), adv, adv}); err != nil {
				return err
			}
			retireJunk(s.sub, 127*31)
			return s.play([]scriptStep{adv, adv})
		},
		window:      []scriptStep{puts(0, 9), dels(10, 12), adv},
		lagAdvances: 1,
		check: func(t *testing.T, sys *epoch.System, _ int64) {
			if n := len(sys.Allocator().JournalSlabs()); n != 2 {
				t.Fatalf("script formatted %d journal slabs, want 2", n)
			}
		},
	},
}

// sweepEngines is the engine axis of the scripted sweeps: every durability
// engine, or the one BDFUZZ_ENGINE pins.
func sweepEngines() []string {
	if e := NewRoundParams("", 0).Engine; e != "" {
		return []string{e}
	}
	return durability.Names()
}

// openSession opens a session for p's subject on a fresh heap.
func openSession(t *testing.T, p RoundParams, heapWords int) *session {
	t.Helper()
	sub, err := NewSubject(p.Subject)
	if err != nil {
		t.Fatal(err)
	}
	return newSession(p, sub, heapWords)
}

// TestJournalCrashSweep runs every script under both subjects with a
// record-per-key block layout, every durability engine (one, when
// BDFUZZ_ENGINE pins it) and both flusher schedules, each configuration
// taking one early write-back step at a point of the window drawn from its
// index. Short mode — the race lane, where a run costs some twenty times
// more — keeps the torn-line eviction fraction and every sixteenth crash
// point, from an offset that differs from one configuration to the next.
func TestJournalCrashSweep(t *testing.T) {
	engines := sweepEngines()
	evicts, stride := []float64{0, 0.5, 1}, 1
	if testing.Short() {
		evicts, stride = []float64{0.5}, 16
	}
	config := 0
	for _, sc := range journalScripts {
		for _, subject := range []string{"bdhash", "skiplist"} {
			for _, engine := range engines {
				for async := 0; async <= 1; async++ {
					sc, subject, engine, async := sc, subject, engine, async
					config++
					first, draw := 1+config%stride, uint64(config)
					t.Run(fmt.Sprintf("%s/%s/%s/async=%d", sc.name, subject, engine, async), func(t *testing.T) {
						t.Parallel()
						base := RoundParams{
							Subject: subject, Seed: 0x70a12e7 + uint64(async),
							Workers: 1, KeySpace: 64, CrashEvents: 1,
							Async: async, Engine: engine,
						}
						points := sweepJournal(t, base, sc, evicts, first, stride, draw)
						t.Logf("%d crash points x %d eviction fractions", points, len(evicts))
					})
				}
			}
		}
	}
}

// sweepJournal crashes sc, its window taking an early write-back step at
// a point drawn from draw, at its n-th window persist event for n = first,
// first+stride, … until the window runs out of events, at every eviction
// fraction, and returns the number of crash points.
func sweepJournal(t *testing.T, base RoundParams, sc journalScript, evicts []float64, first, stride int, draw uint64) int {
	window := withEarly(sc.window, draw)
	if base.Async == 0 {
		for i := 0; i < sc.lagAdvances; i++ {
			window = append(window[:len(window):len(window)], adv)
		}
	}
	start := func(p RoundParams) *session {
		s := openSession(t, p, sc.heapWords)
		if err := sc.prefix(s); err != nil {
			t.Fatalf("prefix: %v", err)
		}
		return s
	}

	clean := start(base)
	sys, earlyRecords := epochSystem(clean.sub), int64(0)
	for _, st := range window {
		before := sys.Stats().JournalRecords
		if err := clean.play([]scriptStep{st}); err != nil {
			t.Fatalf("uncrashed run: %v", err)
		}
		if st.kind == stepEarly {
			earlyRecords += sys.Stats().JournalRecords - before
		}
	}
	sc.check(t, sys, earlyRecords)

	for n, points := first, 0; ; n, points = n+stride, points+1 {
		for ei, evict := range evicts {
			p := base
			p.Seed = Mix(base.Seed, uint64(n)<<2|uint64(ei))
			p.Evict = evict
			fail := func(stage string, err error) {
				t.Helper()
				t.Fatalf("crash at window persist event %d, evict %.1f, %s: %v", n, evict, stage, err)
			}

			s := start(p)
			s.armHook(n)
			crashed, err := catchCrash(func() error { return s.play(window) })
			if err != nil {
				fail("script", err)
			}
			if !crashed {
				s.sub.Heap().SetPersistHook(nil)
				return points
			}
			// Recover with the recovery power-failed at one of its own
			// persist events (or not at all, when the step drawn is past its
			// last one), then check the window.
			s.recoverStep = 1 + int(Mix(p.Seed, 0x5e)%24)
			if err := s.crashCheck(true); err != nil {
				fail("recovery", err)
			}
			s.recoverStep = 0
			// Two epochs on: the recovered system writes its journal over
			// pages of the old one, still valid on the media, and is crashed
			// again — at a drawn persist event of those two epochs, or after
			// them when the step drawn is past their last one.
			s.armHook(1 + int(Mix(p.Seed, 0x2e)%64))
			crashed, err = catchCrash(func() error {
				return s.play([]scriptStep{puts(0, 9), adv, dels(0, 4), puts(50, 52), adv})
			})
			if err != nil {
				fail("two epochs on", err)
			}
			if err := s.crashCheck(crashed); err != nil {
				fail("second crash", err)
			}
		}
	}
}
