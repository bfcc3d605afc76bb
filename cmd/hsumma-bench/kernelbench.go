package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/blas"
	"repro/internal/hockney"
	"repro/internal/matrix"
)

// The -kernelbench mode is the CI gate for the local GEMM kernels: it
// measures the packed register-tiled kernel against the scalar kernel over
// square and skinny shapes, sweeps the intra-rank thread budget, sweeps
// the Strassen-vs-packed crossover, writes BENCH_kernel.json, and — when
// a committed baseline is given — fails if the packed/scalar speedup at
// n=512 or the Strassen/packed wall ratio at n=2048 fell below its floor
// or more than 25% under the baseline. Every gate is a ratio of two
// measurements on one host, so runner speed cancels out.

// kernelBenchReport is the BENCH_kernel.json schema. hsumma-serve
// -kernel-calib reads shapes[].threaded[].{threads,scaling_vs_1t}.
type kernelBenchReport struct {
	// Cores is GOMAXPROCS during the run: thread scaling measures the
	// host's free cores, not the code, so it is recorded but never gated.
	Cores     int           `json:"cores"`
	FMAKernel bool          `json:"fma_kernel"`
	Shapes    []kernelShape `json:"shapes"`
	// Speedup512 is packed over scalar GFLOP/s at 512³ (gated).
	Speedup512 float64 `json:"speedup_512"`
	// ThreadOverheadFit is the Amdahl serial fraction fitted from the
	// scaling_vs_1t points that fit the host's cores
	// (hockney.CalibrateFromScaling); omitted when no point qualifies.
	ThreadOverheadFit *float64 `json:"thread_overhead_fit,omitempty"`
	// Strassen is the crossover sweep: wall-time ratios, because effective
	// GFLOP/s are not comparable across kernels that do different work.
	Strassen             []strassenPoint `json:"strassen"`
	StrassenVsPacked2048 float64         `json:"strassen_vs_packed_2048,omitempty"`
	GatePass             bool            `json:"gate_pass"`
	GateNote             string          `json:"gate_note,omitempty"`
}

type kernelShape struct {
	M            int           `json:"m"`
	N            int           `json:"n"`
	K            int           `json:"k"`
	ScalarGflops float64       `json:"scalar_gflops"`
	PackedGflops float64       `json:"packed_gflops"`
	Speedup      float64       `json:"speedup"`
	Threaded     []threadPoint `json:"threaded"`
}

type threadPoint struct {
	Threads     int     `json:"threads"`
	Gflops      float64 `json:"gflops"`
	ScalingVs1T float64 `json:"scaling_vs_1t"`
}

type strassenPoint struct {
	N                int     `json:"n"`
	PackedSeconds    float64 `json:"packed_s"`
	StrassenSeconds  float64 `json:"strassen_s"`
	StrassenVsPacked float64 `json:"strassen_vs_packed"`
}

// kernelBenchBaseline is the committed baseline schema (see
// ci/bench-kernel-baseline.json): the nominal ratios when it was written.
type kernelBenchBaseline struct {
	Speedup512           float64 `json:"speedup_512"`
	StrassenVsPacked2048 float64 `json:"strassen_vs_packed_2048"`
}

const (
	// The floors hold on any host; the baseline adds a regression check
	// with the same 25% headroom as the simbench gate.
	kernelSpeedupFloor   = 3.0
	strassenRatioFloor   = 1.0
	kernelBenchHeadroom  = 0.75
	kernelBenchMinWindow = 200 * time.Millisecond
)

// bestSeconds runs f at least twice and for at least kernelBenchMinWindow,
// returning the fastest run: noise only ever adds time.
func bestSeconds(f func()) float64 {
	best := -1.0
	var total time.Duration
	for rep := 0; rep < 2 || total < kernelBenchMinWindow; rep++ {
		start := time.Now()
		f()
		d := time.Since(start)
		total += d
		if s := d.Seconds(); best < 0 || s < best {
			best = s
		}
	}
	return best
}

func runKernelBench(quick bool, outPath, baselinePath string) {
	if quick && baselinePath != "" {
		fmt.Fprintln(os.Stderr, "kernelbench: -quick skips the n=2048 Strassen point the baseline gates; drop -quick or -baseline")
		os.Exit(2)
	}
	shapes := [][3]int{{256, 256, 256}, {512, 512, 512}, {1024, 1024, 1024}, {512, 2048, 64}}
	strassenSizes := []int{256, 512, 1024, 2048}
	if quick {
		shapes = [][3]int{{256, 256, 256}, {512, 512, 512}, {512, 2048, 64}}
		strassenSizes = []int{256, 512}
	}
	cores := runtime.GOMAXPROCS(0)
	rep := kernelBenchReport{Cores: cores, FMAKernel: blas.HasFMAKernel()}

	// Thread budgets: powers of two up to the cores, and always 2 so a
	// one-core host still records (but never fits) a point.
	threads := []int{1, 2}
	for t := 4; t <= cores; t *= 2 {
		threads = append(threads, t)
	}
	scaling, counts := map[int]float64{}, map[int]int{}
	for _, sh := range shapes {
		m, n, k := sh[0], sh[1], sh[2]
		a, b, c := matrix.Random(m, k, 1), matrix.Random(k, n, 2), matrix.New(m, n)
		flops := blas.FlopsGemm(m, n, k)
		rate := func(f func()) float64 { return flops / bestSeconds(f) / 1e9 }
		ks := kernelShape{M: m, N: n, K: k,
			ScalarGflops: rate(func() { blas.ScalarGemm(c, a, b) }),
			PackedGflops: rate(func() { blas.Gemm(c, a, b) }),
		}
		ks.Speedup = ks.PackedGflops / ks.ScalarGflops
		if m == 512 && n == 512 && k == 512 {
			rep.Speedup512 = ks.Speedup
		}
		var oneThread float64
		for _, t := range threads {
			g := rate(func() { blas.ParallelGemm(c, a, b, t) })
			if t == 1 {
				oneThread = g
			}
			ks.Threaded = append(ks.Threaded, threadPoint{Threads: t, Gflops: g, ScalingVs1T: g / oneThread})
			if t > 1 && t <= cores {
				scaling[t] += g / oneThread
				counts[t]++
			}
		}
		rep.Shapes = append(rep.Shapes, ks)
		fmt.Fprintf(os.Stderr, "kernelbench: %dx%dx%d scalar %.2f packed %.2f GFLOP/s (%.1fx)\n",
			m, n, k, ks.ScalarGflops, ks.PackedGflops, ks.Speedup)
	}
	for t := range scaling {
		scaling[t] /= float64(counts[t])
	}
	// The fit is recorded, not installed for anyone: this process exits.
	if fit, ok := hockney.CalibrateFromScaling(scaling); ok {
		rep.ThreadOverheadFit = &fit
	}

	for _, n := range strassenSizes {
		a, b, c := matrix.Random(n, n, 3), matrix.Random(n, n, 4), matrix.New(n, n)
		packed := bestSeconds(func() { blas.Gemm(c, a, b) })
		strassen := bestSeconds(func() { blas.StrassenGemm(c, a, b, 0, 1) })
		pt := strassenPoint{N: n, PackedSeconds: packed, StrassenSeconds: strassen, StrassenVsPacked: packed / strassen}
		rep.Strassen = append(rep.Strassen, pt)
		if n == 2048 {
			rep.StrassenVsPacked2048 = pt.StrassenVsPacked
		}
		fmt.Fprintf(os.Stderr, "kernelbench: strassen n=%d packed %.3fs strassen %.3fs (%.2fx)\n",
			n, packed, strassen, pt.StrassenVsPacked)
	}

	rep.GatePass, rep.GateNote = kernelGate(rep, baselinePath)
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	out = append(out, '\n')
	if outPath == "" || outPath == "-" {
		os.Stdout.Write(out)
	} else if err := os.WriteFile(outPath, out, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if !rep.GatePass {
		fmt.Fprintln(os.Stderr, "kernelbench: FAIL:", rep.GateNote)
		os.Exit(1)
	}
}

// kernelGate applies the floors (wherever the point was measured) and the
// baseline headroom (when a baseline is given). The caller writes the
// report before a failure exits, so the diagnostic JSON exists exactly
// when it is needed.
func kernelGate(rep kernelBenchReport, baselinePath string) (bool, string) {
	if rep.Speedup512 < kernelSpeedupFloor {
		return false, fmt.Sprintf("packed/scalar speedup at n=512 is %.2f, below the %.1fx floor", rep.Speedup512, kernelSpeedupFloor)
	}
	if rep.StrassenVsPacked2048 > 0 && rep.StrassenVsPacked2048 < strassenRatioFloor {
		return false, fmt.Sprintf("strassen/packed at n=2048 is %.2f: the sub-cubic kernel lost its crossover", rep.StrassenVsPacked2048)
	}
	if baselinePath == "" {
		return true, ""
	}
	raw, err := os.ReadFile(baselinePath)
	if err != nil {
		return false, fmt.Sprintf("baseline: %v", err)
	}
	var base kernelBenchBaseline
	if err := json.Unmarshal(raw, &base); err != nil || base.Speedup512 <= 0 || base.StrassenVsPacked2048 <= 0 {
		return false, fmt.Sprintf("bad baseline %s: %v", baselinePath, err)
	}
	if limit := base.Speedup512 * kernelBenchHeadroom; rep.Speedup512 < limit {
		return false, fmt.Sprintf("packed/scalar speedup at n=512 is %.2f, more than 25%% under the baseline %.2f", rep.Speedup512, base.Speedup512)
	}
	if limit := base.StrassenVsPacked2048 * kernelBenchHeadroom; rep.StrassenVsPacked2048 < limit {
		return false, fmt.Sprintf("strassen/packed at n=2048 is %.2f, more than 25%% under the baseline %.2f", rep.StrassenVsPacked2048, base.StrassenVsPacked2048)
	}
	return true, ""
}
