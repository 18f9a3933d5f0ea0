//go:build !race

// Under the race detector sync.Pool drops a quarter of what it is handed,
// so htm's pooled attempts are rebuilt at random and this pin does not
// hold; the race lane skips the file.

package kv

import (
	"runtime"
	"testing"

	"bdhtm/internal/nvm"
)

// The served path is one interface call onto the structure's own methods:
// a session adds no allocation to what the structure pins. Every buffered
// kind is held at zero except the skiplist, whose fresh insert or remove
// allocates the slice of its multi-word update; its search path lives in
// the caller's frame, so a lookup and an update allocate nothing.
func TestHashSessionDoesNotAllocate(t *testing.T) {
	const runs = 500
	pinned := map[string]map[string]float64{
		"skiplist": {"Insert (new)": 1, "Remove": 1},
	}
	for _, name := range BufferedKinds() {
		t.Run(name, func(t *testing.T) {
			k, _ := Lookup(name)
			p := testParts(k, nvm.New(nvm.Config{Words: 1 << 20}))
			p.KeySpace = 1 << 14
			st := Open(name, p)
			defer st.Close()
			s := st.Store.NewSession()
			for key := uint64(0); key < 2*runs; key++ {
				s.Insert(key, key)
			}
			fresh, victim, probe := uint64(2*runs), uint64(0), uint64(runs)
			for _, tc := range []struct {
				name string
				op   func()
			}{
				{"Insert (new)", func() { s.Insert(fresh, 1); fresh++ }},
				{"Insert (update)", func() { s.Insert(2*runs-1, 2) }},
				{"Remove", func() { s.Remove(victim); victim++ }},
				{"Get", func() { s.Get(probe); probe++ }},
			} {
				n := testing.AllocsPerRun(runs, tc.op)
				if want := pinned[name][tc.name]; n != want {
					t.Errorf("%s: %v allocs per run, want %v", tc.name, n, want)
				}
			}
		})
	}
}

// TestRecoverAllocatesRecordsOnce is epoch's TestRecoverAllocationIsConstant
// one layer up: Recover replays the surviving headers straight into the
// structure it builds on the recovered system, so recovering n blocks costs
// what opening the structure costs and a constant — no record is held per
// block, neither by the epoch system nor by a second copy grown by append.
func TestRecoverAllocatesRecordsOnce(t *testing.T) {
	const n = 1 << 16
	k, _ := Lookup("bdhash")
	parts := func(h *nvm.Heap) Parts {
		p := testParts(k, h)
		p.KeySpace = 2 * n
		return p
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	h := nvm.New(nvm.Config{Words: 1 << 20})
	var st *Stack
	open := allocated(func() { st = Open("bdhash", parts(h)) })
	s := st.Store.NewSession()
	for key := uint64(0); key < n; key++ {
		s.Insert(key, key)
	}
	st.Sync()
	st.Sys.SimulateCrash(nvm.CrashOptions{})

	var rec *Stack
	got := allocated(func() { rec = Recover("bdhash", parts(h)) })
	defer rec.Close()
	if l := rec.Store.Len(); l != n {
		t.Fatalf("recovered %d keys, want %d", l, n)
	}
	if limit := open + 64<<10; got > limit {
		t.Fatalf("Recover of %d blocks allocated %d bytes, Open %d: %.1f bytes per block over Open, want <= %d",
			n, got, open, float64(got-min(got, open))/n, limit)
	}
}
