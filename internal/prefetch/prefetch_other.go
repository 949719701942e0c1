//go:build !amd64 && !arm64

package prefetch

import "unsafe"

func line(unsafe.Pointer) {}
