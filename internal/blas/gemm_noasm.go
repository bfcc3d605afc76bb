//go:build !amd64

package blas

// useFMAKernel is false off amd64; the portable register-tiled kernel
// handles every micro-tile. It is a var, as on amd64, so the same tests
// build everywhere.
var useFMAKernel = false

func kernelFMA(kc int, ap, bp, ct *float64, ldc, tiles, apStride int) {
	panic("blas: fma kernel unavailable")
}
