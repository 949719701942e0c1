//go:build amd64 || arm64

package prefetch

import "unsafe"

//go:noescape
func line(p unsafe.Pointer)
