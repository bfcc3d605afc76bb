//go:build amd64

package blas

// useFMAKernel gates the AVX2+FMA micro-kernel. When it is set every tile,
// full or edge, goes through the assembly kernel; the portable kernel runs
// only where it is not. Tests flip it to cover both kernels on one host.
var useFMAKernel = cpuHasAVXFMA()

// cpuHasAVXFMA probes CPUID/XGETBV for AVX + FMA support with OS-enabled
// ymm state.
func cpuHasAVXFMA() bool

//go:noescape
func kernelFMA(kc int, ap, bp, ct *float64, ldc, tiles, apStride int)
