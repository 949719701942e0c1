// Package prefetch hints the CPU that a cache line will be read soon. A hint
// is a non-blocking cache-line prefetch: it never faults, never writes and
// never waits for the line, so a hint to a line that turns out unneeded costs
// a little memory bandwidth and nothing else. The simulator's delivery loop
// uses it to warm the destination state of datagrams queued behind the one it
// is delivering (DESIGN.md §10.5).
package prefetch

import "unsafe"

// Line hints that the cache line holding *p will be read soon. It is
// PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64 and a no-op elsewhere; p may
// be nil.
func Line[T any](p *T) { line(unsafe.Pointer(p)) }
