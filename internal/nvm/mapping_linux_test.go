//go:build linux && !race

package nvm

import (
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// resident reports, for each 4 KiB of w, whether the kernel backs it
// (mincore), and whether w is mapped at all.
func resident(t *testing.T, w []uint64) (pages []bool, ok bool) {
	t.Helper()
	const osPage = 4096
	if syscall.Getpagesize() != osPage {
		t.Skipf("%d-byte pages", syscall.Getpagesize())
	}
	vec := make([]byte, (len(w)*WordBytes+osPage-1)/osPage)
	_, _, e := syscall.Syscall(syscall.SYS_MINCORE, uintptr(unsafe.Pointer(unsafe.SliceData(w))),
		uintptr(len(w)*WordBytes), uintptr(unsafe.Pointer(&vec[0])))
	if e == syscall.ENOMEM {
		return nil, false
	}
	if e != 0 {
		t.Fatalf("mincore: %v", e)
	}
	pages = make([]bool, len(vec))
	for i, b := range vec {
		pages[i] = b&1 != 0
	}
	return pages, true
}

// residentViewPages is the number of view pages any of whose memory the
// kernel backs, and the first one.
func residentViewPages(t *testing.T, h *Heap) (n int, first int) {
	t.Helper()
	pages, ok := resident(t, h.view)
	if !ok {
		t.Fatal("the view is not mapped")
	}
	first = -1
	const perView = pageWords * WordBytes / 4096
	for p := 0; p*perView < len(pages); p++ {
		for _, r := range pages[p*perView : min((p+1)*perView, len(pages))] {
			if r {
				if n++; first < 0 {
					first = p
				}
				break
			}
		}
	}
	return n, first
}

// TestViewIsAMapping: the view of a fresh heap is mapped and no page of it
// is resident; a first store faults its whole 32 KiB page in, and only
// that page; words never stored to read zero. The residency checks come
// before any load of an untouched word: such a load maps the zero page the
// kernel shares, which mincore reports as resident.
func TestViewIsAMapping(t *testing.T) {
	h := New(Config{Words: 64 * pageWords})
	if n, _ := residentViewPages(t, h); n != 0 {
		t.Fatalf("a fresh heap has %d resident view pages", n)
	}
	h.Store(5*pageWords+3, 9)
	pages, _ := resident(t, h.view[5*pageWords:][:pageWords])
	for i, r := range pages {
		if !r {
			t.Fatalf("4 KiB page %d of the stored-to view page is not resident", i)
		}
	}
	// With transparent huge pages always on, the kernel may back the
	// first store with a whole 2 MiB page.
	thp, _ := os.ReadFile("/sys/kernel/mm/transparent_hugepage/enabled")
	exact := !strings.Contains(string(thp), "[always]")
	if n, first := residentViewPages(t, h); exact && (n != 1 || first != 5) {
		t.Fatalf("after one store %d view pages are resident, the first %d; want 1, page 5", n, first)
	}
	h.Store(40*pageWords, 1)
	if n, first := residentViewPages(t, h); exact && (n != 2 || first != 5) {
		t.Fatalf("after two stores %d view pages are resident, the first %d; want 2 from page 5", n, first)
	}
	if st := h.Stats(); st.ViewPages != 2 {
		t.Fatalf("ViewPages = %d, want 2", st.ViewPages)
	}
	for a := Addr(0); a < Addr(h.Words()); a += 509 {
		if v := h.Load(a); v != 0 && a != 5*pageWords+3 && a != 40*pageWords {
			t.Fatalf("Load(%d) = %d", a, v)
		}
	}
}

// TestDRAMCrashReleasesTheView: a ModeDRAM crash zeroes the view by giving
// its pages back to the kernel, not by storing zeros: afterwards no page
// is resident or stored to, and the view reads zero.
func TestDRAMCrashReleasesTheView(t *testing.T) {
	h := New(Config{Words: 16 * pageWords, Mode: ModeDRAM})
	for p := Addr(0); p < 16; p += 3 {
		h.Store(p*pageWords+7, uint64(p)+1)
	}
	h.Crash(CrashOptions{})
	if n, first := residentViewPages(t, h); n != 0 {
		t.Fatalf("after the crash %d view pages are resident, the first %d", n, first)
	}
	if st := h.Stats(); st.ViewPages != 0 {
		t.Fatalf("after the crash ViewPages = %d, want 0", st.ViewPages)
	}
	for p := Addr(0); p < 16; p += 3 {
		if v := h.Load(p*pageWords + 7); v != 0 {
			t.Fatalf("page %d reads %d after the crash", p, v)
		}
	}
	h.Store(pageWords, 5)
	if v, st := h.Load(pageWords), h.Stats(); v != 5 || st.ViewPages != 1 {
		t.Fatalf("a store after the crash reads %d with %d view pages, want 5 and 1", v, st.ViewPages)
	}
}

// TestDroppedHeapIsUnmapped: once a Heap is collected, its cleanup
// releases the view's mapping.
func TestDroppedHeapIsUnmapped(t *testing.T) {
	h := New(Config{Words: 1<<20 + 3*XPLineWords})
	h.Store(12345, 1)
	view := h.view // the slice header only: it holds nothing alive
	h = nil
	for i := 0; i < 100; i++ {
		runtime.GC()
		if _, ok := resident(t, view); !ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("a dropped heap's view is still mapped")
}
