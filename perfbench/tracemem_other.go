//go:build !unix

package main

// allocPkts returns room for n packets. Without anonymous mappings the
// trace stays on the Go heap, and the garbage collector paces on it too.
func allocPkts(n int) ([]pkt, func() error, error) {
	return make([]pkt, n), func() error { return nil }, nil
}
