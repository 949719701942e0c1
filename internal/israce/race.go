//go:build race

// Package israce reports whether the race detector is compiled in. Tests
// that pin allocation counts consult it: under the detector sync.Pool drops
// items on purpose and instrumented code allocates, so the counts they pin
// hold only in a normal build.
package israce

// Enabled is true when the build has -race.
const Enabled = true
