//go:build linux && !race

package nvm

import (
	"fmt"
	"syscall"
	"unsafe"
)

const mapped = true // MapWords memory lies outside the Go heap

// MapWords returns n zeroed words of an anonymous private mapping outside
// the Go heap, which the collector neither scans nor counts; a page costs
// memory (and swap: MAP_NORESERVE) only from its first store. Release it
// with UnmapWords, once; a word used after that faults.
func MapWords(n int) []uint64 {
	b, err := syscall.Mmap(-1, 0, max(n, 1)*WordBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		panic(fmt.Sprintf("nvm: mapping %d words: %v", n, err))
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), max(n, 1))[:n]
}

// UnmapWords releases a MapWords mapping.
func UnmapWords(w []uint64) { syscall.Munmap(asBytes(w[:cap(w)])) }

// madvPopulateWrite is MADV_POPULATE_WRITE (Linux 5.14), which the syscall
// package does not name.
const madvPopulateWrite = 23

// Populate faults w's pages in, writable, in one call, where first stores
// take a read fault and then a write fault per 4 KiB. Its error is ignored
// on purpose: a kernel older than 5.14 answers EINVAL and leaves the
// faults to the stores, which is only slower.
func Populate(w []uint64) { _ = syscall.Madvise(asBytes(w), madvPopulateWrite) }

// discard zeroes w, giving its pages back to the kernel where w starts on
// a page boundary.
func discard(w []uint64) {
	if syscall.Madvise(asBytes(w), syscall.MADV_DONTNEED) != nil {
		clear(w)
	}
}

// asBytes is w as the byte slice the mapping calls take: for a whole
// mapping, the one syscall.Mmap returned.
func asBytes(w []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), len(w)*WordBytes)
}
