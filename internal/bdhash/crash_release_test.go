package bdhash

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"bdhtm/internal/epoch"
	"bdhtm/internal/htm"
	"bdhtm/internal/nvm"
)

// collectedSoon runs collections until the cleanups that close done have
// all run, or gives up after a second.
func collectedSoon(done ...<-chan struct{}) bool {
	deadline := time.After(time.Second)
	for _, ch := range done {
		for waiting := true; waiting; {
			runtime.GC()
			select {
			case <-ch:
				waiting = false
			case <-deadline:
				return false
			case <-time.After(20 * time.Millisecond):
			}
		}
	}
	return true
}

func closeOnCleanup[T any](p *T) <-chan struct{} {
	done := make(chan struct{})
	runtime.AddCleanup(p, func(ch chan struct{}) { close(ch) }, done)
	return done
}

// TestCrashReleasesSlots: a power failure loses DRAM, so SimulateCrash
// releases each crashed table's slot array (releasedSoon), even while the
// tables themselves are still referenced — the old index and the one
// recovery rebuilds never coexist — and a crashed table panics on use
// rather than reading released memory. The tables are built on the system
// from several goroutines at once.
func TestCrashReleasesSlots(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 16})
	sys := epoch.New(h, epoch.Config{Manual: true})
	tabs := make([]*Table, 4)
	var wg sync.WaitGroup
	for i := range tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tabs[i] = New(sys, htm.Default(), 1024, uint8(i+1))
		}()
	}
	wg.Wait()
	w := sys.Register()
	for k := uint64(0); k < 100; k++ {
		tabs[0].Insert(w, k, k)
	}
	sys.Sync()
	var released []func() bool
	for _, tab := range tabs {
		released = append(released, watchRelease(tab.slots))
	}
	sys.SimulateCrash(nvm.CrashOptions{})
	for i, tab := range tabs {
		if !releasedSoon(released[i]) {
			t.Fatalf("table %d's slot array is still held after SimulateCrash", i)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("table %d served a Get after the crash", i)
				}
			}()
			tab.Get(1)
		}()
	}
	runtime.KeepAlive(tabs)
}

// TestDroppedTableIsCollected: the system holds its tables weakly, so a
// table its user drops is collected while the system still runs, and its
// slot array is released with it.
func TestDroppedTableIsCollected(t *testing.T) {
	h := nvm.New(nvm.Config{Words: 1 << 16})
	sys := epoch.New(h, epoch.Config{EpochLength: time.Millisecond})
	defer sys.Stop()
	tab := New(sys, htm.Default(), 1024, 1)
	w := sys.Register()
	tab.Insert(w, 1, 1)
	done := closeOnCleanup(tab)
	released := watchRelease(tab.slots)
	tab = nil
	if !collectedSoon(done) {
		t.Fatal("a dropped table is kept alive by its running system")
	}
	if !releasedSoon(released) {
		t.Fatal("a collected table's slot array is still held")
	}
	runtime.KeepAlive(sys)
}

// releasedSoon runs collections until released reports true, or gives up
// after a second.
func releasedSoon(released func() bool) bool {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		runtime.GC()
		if released() {
			return true
		}
	}
	return false
}
