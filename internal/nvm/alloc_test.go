//go:build !race

// Allocation pins are kept out of the race lane, like the other packages'
// alloc_test.go files: the detector's instrumentation is not what they
// measure.

package nvm

import "testing"

// TestLoadsOfUnstoredWordsDoNotAllocate: a load of a word whose page was
// never stored to reads zero and stores to nothing, so reading a fresh
// heap end to end allocates nothing and touches no page.
func TestLoadsOfUnstoredWordsDoNotAllocate(t *testing.T) {
	h := New(Config{Words: 64 * pageWords})
	a := Addr(0)
	if n := testing.AllocsPerRun(1000, func() {
		h.Load(a)
		a = (a + 4099) % Addr(h.Words())
	}); n != 0 {
		t.Fatalf("a load of a never-stored word: %v allocs, want 0", n)
	}
	if st := h.Stats(); st.ViewPages != 0 {
		t.Fatalf("loads touched %d view pages", st.ViewPages)
	}
}
