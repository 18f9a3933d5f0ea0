package crashfuzz

import (
	"reflect"
	"testing"

	"bdhtm/internal/bdhash"
	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/mwcas"
	"bdhtm/internal/nvm"
	"bdhtm/internal/skiplist"
	"bdhtm/internal/spash"
	"bdhtm/internal/veb"
)

// agreeRun is one structure built on one TM: the script drives op, and the
// run's observable end state is what final returns.
type agreeRun struct {
	// op applies one script step (kind in [0,100), key, value) and returns
	// everything the operation reported.
	op    func(kind int, k, v uint64) [2]uint64
	final func() []int64 // dump, Len, LiveBlocks — whatever the structure has
	sys   *epoch.System  // buffered structures: advanced by the script, synced at the end
	stats func() htm.StatsSnapshot
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// kvRun adapts an Insert/Remove/Get structure: 40 % inserts, 30 % removes,
// 30 % gets; final is every key's value, then Len, then the extra counters.
func kvRun(tm *htm.TM, sys *epoch.System, ins func(k, v uint64) bool, rem func(k uint64) bool,
	get func(k uint64) (uint64, bool), length func() int, extra ...func() int64) agreeRun {
	return agreeRun{
		sys: sys, stats: tm.Stats,
		op: func(kind int, k, v uint64) [2]uint64 {
			switch {
			case kind < 40:
				return [2]uint64{b2u(ins(k, v))}
			case kind < 70:
				return [2]uint64{b2u(rem(k))}
			default:
				v, ok := get(k)
				return [2]uint64{v, b2u(ok)}
			}
		},
		final: func() []int64 {
			var out []int64
			for k := uint64(0); k < agreeKeys; k++ {
				v, ok := get(k)
				out = append(out, int64(v), int64(b2u(ok)))
			}
			out = append(out, int64(length()))
			for _, f := range extra {
				out = append(out, f())
			}
			return out
		},
	}
}

const (
	agreeKeys = 256
	agreeOps  = 2000
)

func agreeSys() *epoch.System {
	return epoch.New(nvm.New(nvm.Config{Words: DefaultHeapWords}), epoch.Config{Manual: true})
}

// agreeSubjects builds every structure whose operations run under htm.Run.
var agreeSubjects = []struct {
	name  string
	build func(tm *htm.TM) agreeRun
}{
	{"bdhash", func(tm *htm.TM) agreeRun {
		sys := agreeSys()
		t, w := bdhash.New(sys, tm, 1<<10, 1), sys.Register()
		return kvRun(tm, sys,
			func(k, v uint64) bool { return t.Insert(w, k, v) },
			func(k uint64) bool { return t.Remove(w, k) },
			func(k uint64) (uint64, bool) { return t.GetW(w, k) },
			t.Len, sys.Allocator().LiveBlocks)
	}},
	{"spash-BD", func(tm *htm.TM) agreeRun {
		sys := agreeSys()
		// Depth 1: 16 buckets of 8 for 256 keys, so the script splits segments
		// (session-only) and doubles the directory in both modes.
		t, w := spash.New(spash.Config{Mode: spash.ModeBD, Sys: sys, TM: tm, InitialDepth: 1}), sys.Register()
		return kvRun(tm, sys,
			func(k, v uint64) bool { return t.Insert(w, k, v) },
			func(k uint64) bool { return t.Remove(w, k) },
			t.Get, t.Len, sys.Allocator().LiveBlocks,
			func() int64 { return t.Stats().Splits }, func() int64 { return t.Stats().Doublings })
	}},
	{"spash-eADR", func(tm *htm.TM) agreeRun {
		t := spash.New(spash.Config{Mode: spash.ModeEADR, TM: tm, InitialDepth: 1,
			Heap: nvm.New(nvm.Config{Words: DefaultHeapWords, Mode: nvm.ModeEADR})})
		return kvRun(tm, nil,
			func(k, v uint64) bool { return t.Insert(nil, k, v) },
			func(k uint64) bool { return t.Remove(nil, k) },
			t.Get, t.Len, t.Allocator().LiveBlocks,
			func() int64 { return t.Stats().Splits })
	}},
	{"veb-persistent", func(tm *htm.TM) agreeRun {
		sys := agreeSys()
		t, w := veb.New(veb.Config{UniverseBits: vebUniverseBits, TM: tm, DataSys: sys}), sys.Register()
		return kvRun(tm, sys,
			func(k, v uint64) bool { return t.Insert(w, k, v) },
			func(k uint64) bool { return t.Remove(w, k) },
			t.Get, t.Len, sys.Allocator().LiveBlocks,
			func() int64 { k, v, ok := t.Successor(agreeKeys / 2); return int64(k ^ v ^ b2u(ok)) })
	}},
	{"veb-transient", func(tm *htm.TM) agreeRun {
		t := veb.New(veb.Config{UniverseBits: vebUniverseBits, TM: tm})
		return kvRun(tm, nil,
			func(k, v uint64) bool { return t.Insert(nil, k, v) },
			func(k uint64) bool { return t.Remove(nil, k) },
			t.Get, t.Len)
	}},
	{"skiplist-BDL", func(tm *htm.TM) agreeRun {
		sys := agreeSys()
		l := skiplist.New(skiplist.Config{Variant: skiplist.BDL, TM: tm, DataSys: sys, Threads: 1,
			IndexHeap: nvm.New(nvm.Config{Words: DefaultHeapWords, Mode: nvm.ModeDRAM})})
		h := l.NewHandle()
		return kvRun(tm, sys, h.Insert, h.Remove, h.Get, l.Len, sys.Allocator().LiveBlocks)
	}},
	{"skiplist-PHTM-MwCAS", func(tm *htm.TM) agreeRun {
		l := skiplist.New(skiplist.Config{Variant: skiplist.PHTMMwCAS, TM: tm, Threads: 1,
			IndexHeap: nvm.New(nvm.Config{Words: DefaultHeapWords})})
		h := l.NewHandle()
		return kvRun(tm, nil, h.Insert, h.Remove, h.Get, l.Len)
	}},
	{"HTMMwCAS", func(tm *htm.TM) agreeRun {
		// Three-word compare-and-swaps over agreeKeys words, a line apart from
		// each other; a third of them carry one stale Old and must fail
		// with no word written.
		h := nvm.New(nvm.Config{Words: DefaultHeapWords})
		m := mwcas.NewHTMMwCAS(h, tm)
		word := func(k uint64) nvm.Addr { return nvm.Addr(nvm.RootWords) + nvm.Addr(k%agreeKeys)*nvm.LineWords }
		return agreeRun{
			stats: tm.Stats,
			op: func(kind int, k, v uint64) [2]uint64 {
				var es [3]mwcas.Entry
				for i := range es {
					a := word(k + uint64(i)*7)
					es[i] = mwcas.Entry{Addr: a, Old: m.Read(a), New: v>>1 + uint64(i)}
				}
				if kind < 33 {
					es[kind%3].Old ^= 1
				}
				return [2]uint64{b2u(m.Apply(es[:]))}
			},
			final: func() []int64 {
				var out []int64
				for k := uint64(0); k < agreeKeys; k++ {
					out = append(out, int64(m.Read(word(k))))
				}
				return out
			},
		}
	}},
}

// TestFastAndSessionAgree is the differential behind "one body per
// operation": the same seeded script, on a TM that commits every attempt
// and on a TM that kills every attempt (so every body runs as a session),
// must be indistinguishable from outside — every return value, the final
// contents, and for the buffered structures what the epoch system was
// asked to retire and flush.
func TestFastAndSessionAgree(t *testing.T) {
	type outcome struct {
		results  [][2]uint64
		final    []int64
		buffered bool
		epoch    [2]int64 // retired, flushed
		tm       htm.StatsSnapshot
	}
	run := func(build func(*htm.TM) agreeRun, spurious float64) outcome {
		r := build(htm.New(htm.Config{SpuriousRate: spurious, Seed: 0xa9ee}))
		rng := splitmix{s: Mix(SeedFromEnv(defaultSeed), 0xa9ee)}
		var out outcome
		for i := 0; i < agreeOps; i++ {
			if r.sys != nil && i%16 == 15 {
				r.sys.AdvanceOnce() // out-of-place updates, retirements, OldSeeNew-free restarts
			}
			kind, k, v := rng.intn(100), rng.next()%agreeKeys, rng.next()>>1
			out.results = append(out.results, r.op(kind, k, v))
		}
		out.final = r.final()
		if out.buffered = r.sys != nil; out.buffered {
			r.sys.Sync()
			r.sys.Sync()
			st := r.sys.Stats()
			out.epoch = [2]int64{st.RetiredBlocks, st.FlushedBlocks}
			r.sys.Stop()
		}
		out.tm = r.stats()
		return out
	}
	for _, sub := range agreeSubjects {
		sub := sub
		t.Run(sub.name, func(t *testing.T) {
			t.Parallel()
			fast, slow := run(sub.build, 0), run(sub.build, 1)
			// Neither run mixed the modes: no attempt of the fast run failed for
			// a reason Run retries (its only sessions are spash's session-only
			// splits), no attempt of the other run committed, and every body
			// that committed as a transaction finished as a session there.
			if fast.tm.Aborts() != fast.tm.Explicit || fast.tm.Commits == 0 {
				t.Fatalf("fast run: %+v", fast.tm)
			}
			if slow.tm.Commits != 0 || slow.tm.FallbackAcquires-fast.tm.FallbackAcquires < fast.tm.Commits {
				t.Fatalf("session run: %d commits, %d sessions for the fast run's %d commits and %d sessions",
					slow.tm.Commits, slow.tm.FallbackAcquires, fast.tm.Commits, fast.tm.FallbackAcquires)
			}
			for i := range fast.results {
				if fast.results[i] != slow.results[i] {
					t.Fatalf("op %d returned %v as a transaction and %v as a session", i, fast.results[i], slow.results[i])
				}
			}
			if !reflect.DeepEqual(fast.final, slow.final) {
				t.Fatalf("final state differs:\n fast    %v\n session %v", fast.final, slow.final)
			}
			if fast.epoch != slow.epoch {
				t.Fatalf("epoch system saw different work: retired/flushed %v as transactions, %v as sessions", fast.epoch, slow.epoch)
			}
			if fast.buffered && (fast.epoch[0] == 0 || fast.epoch[1] == 0) {
				t.Fatalf("script retired/flushed %v blocks: it does not exercise the epoch system", fast.epoch)
			}
		})
	}
}
