//go:build linux && !race

package bdhash

import (
	"syscall"
	"unsafe"
)

// watchRelease returns a probe that reports whether slots, a mapping, has
// been unmapped: mincore fails with ENOMEM on an address nothing maps. It
// keeps the address only, which holds nothing alive.
func watchRelease(slots []uint64) func() bool {
	addr, n := uintptr(unsafe.Pointer(&slots[0])), uintptr(len(slots)*8)
	vec := make([]byte, (n+4095)/4096)
	return func() bool {
		_, _, e := syscall.Syscall(syscall.SYS_MINCORE, addr, n, uintptr(unsafe.Pointer(&vec[0])))
		return e == syscall.ENOMEM
	}
}
