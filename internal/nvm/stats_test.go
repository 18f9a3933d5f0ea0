package nvm

import (
	"sync"
	"testing"
)

func TestCounterShardsSum(t *testing.T) {
	var c counter
	for shard := uint64(0); shard < 100; shard++ { // exercises the mask wrap
		c.Add(shard, 2)
	}
	if got := c.Load(); got != 200 {
		t.Fatalf("Load = %d, want 200", got)
	}
	c.Add(0, -50)
	if got := c.Load(); got != 150 {
		t.Fatalf("Load after negative add = %d, want 150", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c counter
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(uint64(w), 1)
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("Load = %d, want %d", got, workers*per)
	}
}
