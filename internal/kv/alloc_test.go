//go:build !race

// Under the race detector sync.Pool drops a quarter of what it is handed,
// so htm's pooled attempts are rebuilt at random and this pin does not
// hold; the race lane skips the file.

package kv

import (
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
