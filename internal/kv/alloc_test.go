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

// The served path is one interface call onto bdhash's own methods: a
// session adds no allocation to what bdhash pins at zero.
func TestHashSessionDoesNotAllocate(t *testing.T) {
	k, _ := Lookup("bdhash")
	p := testParts(k, nvm.New(nvm.Config{Words: 1 << 20}))
	p.KeySpace = 1 << 14
	st := Open("bdhash", p)
	defer st.Close()
	s := st.Store.NewSession()
	for key := uint64(0); key < 1000; key++ {
		s.Insert(key, key)
	}
	probe := uint64(0)
	for name, op := range map[string]func(){
		"Get":             func() { s.Get(probe); probe++ },
		"Insert (update)": func() { s.Insert(500, 2) },
	} {
		if n := testing.AllocsPerRun(500, op); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
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
