package nvm

import (
	"math/bits"
	"sync/atomic"
)

// bitset is a fixed-size concurrent bitmap with one bit per cache line
// (or per page).
type bitset struct {
	bits []atomic.Uint64
}

func newBitset(n int) bitset {
	return bitset{bits: make([]atomic.Uint64, (n+63)/64)}
}

func (b *bitset) test(i uint64) bool {
	return b.bits[i/64].Load()&(1<<(i%64)) != 0
}

func (b *bitset) set(i uint64) {
	w := &b.bits[i/64]
	mask := uint64(1) << (i % 64)
	for {
		old := w.Load()
		if old&mask != 0 {
			return
		}
		if w.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// testAndSet sets bit i and reports whether it was already set.
func (b *bitset) testAndSet(i uint64) bool {
	w := &b.bits[i/64]
	mask := uint64(1) << (i % 64)
	for {
		old := w.Load()
		if old&mask != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|mask) {
			return false
		}
	}
}

// testAndClear clears bit i and reports whether it was set.
func (b *bitset) testAndClear(i uint64) bool {
	w := &b.bits[i/64]
	mask := uint64(1) << (i % 64)
	for {
		old := w.Load()
		if old&mask == 0 {
			return false
		}
		if w.CompareAndSwap(old, old&^mask) {
			return true
		}
	}
}

func (b *bitset) clear() {
	for i := range b.bits {
		b.bits[i].Store(0)
	}
}

// count is the number of bits set.
func (b *bitset) count() int64 {
	n := 0
	for i := range b.bits {
		n += bits.OnesCount64(b.bits[i].Load())
	}
	return int64(n)
}
