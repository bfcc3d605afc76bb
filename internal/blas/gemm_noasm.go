//go:build !amd64

package blas

// useFMAKernel and useAVX512Kernel are false off amd64; the portable
// register-tiled kernel handles every micro-tile. They are vars, as on
// amd64, so the same tests build everywhere.
var (
	useFMAKernel    = false
	useAVX512Kernel = false
)

func kernelFMA(kc int, ap, bp, ct *float64, ldc, tiles, apStride int) {
	panic("blas: fma kernel unavailable")
}

func kernelFMA512(kc int, ap, bp, ct *float64, ldc, tiles, apStride, bStride int) {
	panic("blas: avx512 kernel unavailable")
}
