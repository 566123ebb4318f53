//go:build unix

package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// allocPkts returns room for n packets in anonymous memory outside the Go
// heap, and the function that releases it.
func allocPkts(n int) ([]pkt, func() error, error) {
	if n == 0 {
		return nil, func() error { return nil }, nil
	}
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(pkt{})), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("map trace memory: %w", err)
	}
	return unsafe.Slice((*pkt)(unsafe.Pointer(&b[0])), n), func() error { return syscall.Munmap(b) }, nil
}
