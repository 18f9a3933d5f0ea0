package crashfuzz

import (
	"reflect"
	"testing"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/kv"
	"bdhtm/internal/mwcas"
	"bdhtm/internal/nvm"
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
	keys  uint64 // the script's key universe
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// kvRun opens one kv kind on tm and drives it through a session: 40 %
// inserts, 30 % removes, 30 % gets over keys [0, keys); final is every
// key's value, then Len, then (buffered kinds) the data allocator's live
// blocks, then whatever extra reads off the concrete structure.
func kvRun(kind string, tm *htm.TM, keys uint64, extra func(structure any) []int64) agreeRun {
	k, _ := kv.Lookup(kind)
	p := kv.Parts{TM: tm, Epoch: epoch.Config{Manual: true}, KeySpace: fuzzKeySpace[kind], Threads: 1}
	if k.Bounded {
		p.KeySpace = 1 << vebUniverseBits
	}
	if k.Heap != nvm.ModeDRAM {
		p.Heap = nvm.New(nvm.Config{Words: DefaultHeapWords, Mode: k.Heap})
	}
	if k.Index {
		p.Index = nvm.New(nvm.Config{Words: DefaultHeapWords, Mode: nvm.ModeDRAM})
	}
	st := kv.Open(kind, p)
	h := st.Store.NewSession()
	return agreeRun{
		sys: st.Sys, stats: tm.Stats, keys: keys,
		op: func(kind int, k, v uint64) [2]uint64 {
			switch {
			case kind < 40:
				return [2]uint64{b2u(h.Insert(k, v))}
			case kind < 70:
				return [2]uint64{b2u(h.Remove(k))}
			default:
				v, ok := h.Get(k)
				return [2]uint64{v, b2u(ok)}
			}
		},
		final: func() []int64 {
			var out []int64
			for k := uint64(0); k < keys; k++ {
				v, ok := h.Get(k)
				out = append(out, int64(v), int64(b2u(ok)))
			}
			out = append(out, int64(st.Store.Len()))
			if st.Sys != nil {
				out = append(out, st.Sys.Allocator().LiveBlocks())
			}
			if extra != nil {
				out = append(out, extra(st.Structure)...)
			}
			return out
		},
	}
}

const (
	agreeKeys = 256
	agreeOps  = 2000
	// spashKeys is wide enough that the script overflows buckets of the
	// default 16-segment table: it splits segments (session-only) and
	// doubles the directory in both modes.
	spashKeys = 2048
)

// agreeSubjects builds every structure whose operations run under htm.Run.
var agreeSubjects = []struct {
	name  string
	build func(tm *htm.TM) agreeRun
}{
	{"bdhash", func(tm *htm.TM) agreeRun { return kvRun("bdhash", tm, agreeKeys, nil) }},
	{"spash-BD", func(tm *htm.TM) agreeRun {
		return kvRun("spash", tm, spashKeys, func(t any) []int64 {
			st := t.(*spash.Table).Stats()
			return []int64{st.Splits, st.Doublings}
		})
	}},
	{"spash-eADR", func(tm *htm.TM) agreeRun {
		return kvRun("spash-eadr", tm, spashKeys, func(t any) []int64 {
			return []int64{t.(*spash.Table).Allocator().LiveBlocks(), t.(*spash.Table).Stats().Splits}
		})
	}},
	{"veb-persistent", func(tm *htm.TM) agreeRun {
		return kvRun("veb", tm, agreeKeys, func(t any) []int64 {
			k, v, ok := t.(*veb.Tree).Successor(agreeKeys / 2)
			return []int64{int64(k ^ v ^ b2u(ok))}
		})
	}},
	{"veb-transient", func(tm *htm.TM) agreeRun { return kvRun("veb-transient", tm, agreeKeys, nil) }},
	{"skiplist-BDL", func(tm *htm.TM) agreeRun { return kvRun("skiplist", tm, agreeKeys, nil) }},
	{"skiplist-PHTM-MwCAS", func(tm *htm.TM) agreeRun { return kvRun("skiplist-mwcas", tm, agreeKeys, nil) }},
	{"HTMMwCAS", func(tm *htm.TM) agreeRun {
		// Three-word compare-and-swaps over agreeKeys words, a line apart from
		// each other; a third of them carry one stale Old and must fail
		// with no word written.
		h := nvm.New(nvm.Config{Words: DefaultHeapWords})
		m := mwcas.NewHTMMwCAS(h, tm)
		word := func(k uint64) nvm.Addr { return nvm.Addr(nvm.RootWords) + nvm.Addr(k%agreeKeys)*nvm.LineWords }
		return agreeRun{
			stats: tm.Stats, keys: agreeKeys,
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
			kind, k, v := rng.intn(100), rng.next()%r.keys, rng.next()>>1
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
