//go:build amd64

package blas

// useFMAKernel gates the AVX2+FMA micro-kernel. When it is set every tile,
// full or edge, goes through the assembly kernel; the portable kernel runs
// only where it is not. Tests flip it to cover both kernels on one host.
var useFMAKernel = cpuHasAVXFMA()

// useAVX512Kernel gates the 6×16 zmm kernel, which takes the pairs of full
// B strips in full-row tiles; every other tile stays on kernelFMA. It is
// set only where useFMAKernel is, and tests flip the two together.
var useAVX512Kernel = useFMAKernel && cpuHasAVX512()

// cpuHasAVXFMA probes CPUID/XGETBV for AVX + FMA support with OS-enabled
// ymm state.
func cpuHasAVXFMA() bool

// cpuHasAVX512 probes CPUID/XGETBV for AVX512F with OS-enabled opmask and
// zmm state. It executes XGETBV, so it may run only where cpuHasAVXFMA
// holds.
func cpuHasAVX512() bool

//go:noescape
func kernelFMA(kc int, ap, bp, ct *float64, ldc, tiles, apStride int)

//go:noescape
func kernelFMA512(kc int, ap, bp, ct *float64, ldc, tiles, apStride, bStride int)
