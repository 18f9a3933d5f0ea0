// Package bdhtm's benchmarks regenerate every table and figure of the
// paper's evaluation (Sec. 4-5) in testing.B form, at reduced scale so
// `go test -bench=.` completes quickly. cmd/bdbench runs the same
// experiments with figure-shaped output and paper-scale flags.
//
// Mapping (see DESIGN.md for the full per-experiment index); the
// structure sub-benchmarks are named <paper name>/<distribution>, one per
// row of the figure's kind table:
//
//	BenchmarkFig1      vEB trees, transient vs buffered durable
//	BenchmarkFig2      HTM commit/abort breakdown (reported as metrics)
//	BenchmarkFig3      persistent trees vs baselines (write-heavy uniform, read-heavy Zipfian)
//	BenchmarkTable3    space consumption (reported via b.Log)
//	BenchmarkFig4*     MwCAS microbenchmark
//	BenchmarkFig5      skiplist variants
//	BenchmarkFig6      persistent hash tables
//	BenchmarkFig7      epoch-length sensitivity (throughput)
//	BenchmarkFig8      epoch-length sensitivity (NVM space, via b.Log)
//	BenchmarkRecovery  Sec. 5.2 recovery scan+rebuild, every buffered kind
package bdhtm

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/harness"
	"bdhtm/internal/htm"
	"bdhtm/internal/kv"
	"bdhtm/internal/mwcas"
	"bdhtm/internal/nvm"
	"bdhtm/internal/ycsb"
)

const benchKeySpace = 1 << 14

func benchOpts() harness.Opts {
	return harness.Opts{KeySpace: benchKeySpace, Latency: true}
}

// benchOps drives b.N operations of the workload through one session.
func benchOps(b *testing.B, inst *harness.Instance, dist harness.Dist, mix ycsb.Mix, seed uint64) {
	b.Helper()
	harness.Prefill(inst, benchKeySpace)
	h := inst.Store.NewSession()
	g := ycsb.NewUniform(benchKeySpace, mix, seed)
	if dist.Zipfian {
		g = ycsb.NewZipfian(benchKeySpace, dist.Theta, mix, seed)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, k, v := g.Next()
		switch op {
		case ycsb.OpRead:
			h.Get(k)
		case ycsb.OpInsert:
			h.Insert(k, v)
		case ycsb.OpRemove:
			h.Remove(k)
		}
	}
	b.StopTimer()
}

// panel is one figure panel: a distribution and an operation mix.
type panel struct {
	name string
	dist harness.Dist
	mix  ycsb.Mix
}

var (
	writeUniform = panel{"uniform", harness.Uniform, ycsb.WriteHeavy}
	writeZipf    = panel{"zipf", harness.Zipf99, ycsb.WriteHeavy}
)

// benchKind runs one kind under one panel as <title>/<variant/>?<panel>.
func benchKind(b *testing.B, o harness.Opts, kind, variant string, p panel) {
	k, _ := kv.Lookup(kind)
	b.Run(k.Title+"/"+variant+p.name, func(b *testing.B) {
		inst := harness.New(kind, o)
		defer inst.Close()
		benchOps(b, inst, p.dist, p.mix, 42)
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mops/s")
	})
}

// benchKinds runs every kind under every panel.
func benchKinds(b *testing.B, kinds []string, panels ...panel) {
	for _, kind := range kinds {
		for _, p := range panels {
			benchKind(b, benchOpts(), kind, "", p)
		}
	}
}

func BenchmarkFig1(b *testing.B) {
	benchKinds(b, []string{"veb-transient", "veb"}, writeUniform, writeZipf)
}

// --- Fig. 2 -------------------------------------------------------------------

func BenchmarkFig2(b *testing.B) {
	o := benchOpts()
	o.MemTypeRate = 0.3 // the low-thread-count anomaly, mitigated by pre-walks
	inst := harness.New("veb", o)
	defer inst.Close()
	benchOps(b, inst, harness.Uniform, ycsb.WriteHeavy, 7)
	s := inst.TM.Stats()
	at := float64(s.Attempts())
	b.ReportMetric(100*float64(s.Commits)/at, "%commit")
	b.ReportMetric(100*float64(s.Conflict)/at, "%conflict")
	b.ReportMetric(100*float64(s.MemType)/at, "%memtype")
}

// --- Fig. 3 -------------------------------------------------------------------

func BenchmarkFig3(b *testing.B) {
	benchKinds(b, []string{"veb", "lbtree", "abtree-elim", "abtree-occ"},
		writeUniform, panel{"read-heavy-zipf", harness.Zipf99, ycsb.ReadHeavy})
}

// --- Table 3 ------------------------------------------------------------------

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var report string
		for _, kind := range []string{"veb-transient", "veb", "lbtree", "abtree-elim", "abtree-occ"} {
			inst := harness.New(kind, benchOpts())
			harness.Prefill(inst, benchKeySpace)
			inst.Sync()
			report += fmt.Sprintf("%s: DRAM %.2f MiB, NVM %.2f MiB; ",
				inst.Name, float64(inst.DRAMBytes())/(1<<20), float64(inst.NVMBytes())/(1<<20))
			inst.Close()
		}
		if i == 0 {
			b.Log(report)
		}
	}
}

// --- Fig. 4 -------------------------------------------------------------------

func benchMwCAS(b *testing.B, width int, apply func(h *nvm.Heap) func([]mwcas.Entry)) {
	b.Helper()
	const slots = 1 << 14
	h := nvm.New(nvm.Config{Words: slots*nvm.LineWords + (1 << 16), Latency: nvm.OptaneProfile})
	fn := apply(h)
	rng := rand.New(rand.NewPCG(3, 3))
	entries := make([]mwcas.Entry, width)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		used := uint64(0)
		for j := range entries {
			var s uint64
			for {
				s = rng.Uint64N(slots)
				if used&(1<<(s%64)) == 0 || width > 32 {
					used |= 1 << (s % 64)
					break
				}
			}
			a := nvm.Addr(nvm.RootWords + s*nvm.LineWords)
			old := h.Load(a)
			entries[j] = mwcas.Entry{Addr: a, Old: old, New: old + 1}
		}
		fn(entries)
	}
}

func BenchmarkFig4_MwWR_4(b *testing.B) {
	benchMwCAS(b, 4, func(h *nvm.Heap) func([]mwcas.Entry) {
		return func(es []mwcas.Entry) { mwcas.MwWR(h, es) }
	})
}

func BenchmarkFig4_HTMMwCAS_4(b *testing.B) {
	benchMwCAS(b, 4, func(h *nvm.Heap) func([]mwcas.Entry) {
		m := mwcas.NewHTMMwCAS(h, htm.Default())
		return func(es []mwcas.Entry) { m.Apply(es) }
	})
}

func BenchmarkFig4_MwCAS_4(b *testing.B) {
	benchMwCAS(b, 4, func(h *nvm.Heap) func([]mwcas.Entry) {
		next := nvm.Addr(h.Words() - (1 << 12))
		m := mwcas.NewDesc(h, false, 1, func(w int) nvm.Addr { a := next; next += nvm.Addr(w); return a })
		return func(es []mwcas.Entry) { m.Apply(0, es) }
	})
}

func BenchmarkFig4_PMwCAS_4(b *testing.B) {
	benchMwCAS(b, 4, func(h *nvm.Heap) func([]mwcas.Entry) {
		next := nvm.Addr(h.Words() - (1 << 12))
		m := mwcas.NewDesc(h, true, 1, func(w int) nvm.Addr { a := next; next += nvm.Addr(w); return a })
		return func(es []mwcas.Entry) { m.Apply(0, es) }
	})
}

// --- Fig. 5 -------------------------------------------------------------------

func BenchmarkFig5(b *testing.B) {
	benchKinds(b,
		[]string{"skiplist-dl", "skiplist-noflush", "skiplist-mwcas", "skiplist", "skiplist-transient"}, writeUniform)
}

// --- Fig. 6 -------------------------------------------------------------------

func BenchmarkFig6(b *testing.B) {
	benchKinds(b, []string{"spash", "spash-eadr", "cceh", "plush"}, writeUniform, writeZipf)
}

// --- Fig. 7 -------------------------------------------------------------------

func BenchmarkFig7(b *testing.B) {
	for _, c := range []struct {
		epoch time.Duration
		dist  panel
	}{
		{100 * time.Microsecond, writeZipf}, {10 * time.Millisecond, writeZipf},
		{time.Second, writeZipf}, {10 * time.Millisecond, writeUniform},
	} {
		o := benchOpts()
		o.EpochLength = c.epoch
		o.CacheLines = 1 << 13
		benchKind(b, o, "veb", "epoch="+c.epoch.String()+"/", panel{c.dist.name, c.dist.dist, ycsb.Mix{ReadPct: 20}})
	}
}

// --- Fig. 8 -------------------------------------------------------------------

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var report string
		for _, el := range []time.Duration{time.Millisecond, 100 * time.Millisecond} {
			for _, d := range []harness.Dist{harness.Uniform, harness.Zipf99} {
				o := benchOpts()
				o.EpochLength = el
				inst := harness.New("veb", o)
				harness.Run(inst, harness.Workload{
					KeySpace: benchKeySpace, Dist: d, Mix: ycsb.WriteOnly, Prefill: true,
				}, 1, 100*time.Millisecond, 5)
				report += fmt.Sprintf("epoch=%v %s: %.2f MiB; ", el, d, float64(inst.NVMBytes())/(1<<20))
				inst.Close()
			}
		}
		if i == 0 {
			b.Log(report)
		}
	}
}

// --- Sec. 5.2 recovery ---------------------------------------------------------

func BenchmarkRecovery(b *testing.B) {
	for _, kind := range kv.BufferedKinds() {
		k, _ := kv.Lookup(kind)
		parts := func(h *nvm.Heap) kv.Parts {
			return kv.Parts{Heap: h, TM: htm.Default(), Epoch: epoch.Config{Manual: true}, KeySpace: benchKeySpace}
		}
		b.Run(k.Title, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				st := kv.Open(kind, parts(nvm.New(nvm.Config{Words: 1 << 21})))
				s := st.Store.NewSession()
				for k := uint64(0); k < benchKeySpace; k += 2 {
					s.Insert(k, k)
				}
				st.Sync()
				st.Sys.SimulateCrash(nvm.CrashOptions{})
				p := parts(st.Heap)
				b.StartTimer()
				rec := kv.Recover(kind, p)
				b.StopTimer()
				if rec.Store.Len() != benchKeySpace/2 {
					b.Fatalf("recovered %d keys", rec.Store.Len())
				}
				rec.Close()
			}
		})
	}
}
