// Package machine is the platform model of the paper (§IV–V): a Hockney
// machine (α latency, β reciprocal bandwidth, γ seconds per flop) with the
// intra-rank thread-scaling curve, the presets the paper evaluates on
// (calibrated ones included) with their contention descriptions, and the
// BlueGene/P torus geometry behind the mapping ablation. The same Model
// value parameterises the closed-form analysis (internal/model), the
// planner's scorer (internal/tune) and both virtual engines
// (internal/simnet, internal/evsim), so every timing path compares like
// with like.
//
// The Hockney point-to-point model: the time to move a message of m units
// between two processors is T(m) = α + m·β.
package machine

import (
	"fmt"
	"math"
	"sync/atomic"
)

// BytesPerElement is the wire size of one matrix element (float64).
const BytesPerElement = 8

// Model is a homogeneous Hockney machine model. Gamma extends the pure
// communication model with the combined floating-point multiply-add time the
// paper calls γ, so one Model describes a full platform.
type Model struct {
	// Alpha is the per-message latency in seconds.
	Alpha float64
	// Beta is the reciprocal bandwidth in seconds per message unit.
	// This repository follows the paper's arithmetic and counts matrix
	// elements as the unit (see presets.go); PointToPoint simply applies
	// Beta to whatever unit the caller passes.
	Beta float64
	// Gamma is the time of one floating-point operation in seconds
	// (the paper charges 2·n³/p flops of computation at this rate).
	Gamma float64
}

// PointToPoint returns the time to send a message of the given size (in
// Beta's units) between two processors.
func (m Model) PointToPoint(size float64) float64 {
	if size < 0 {
		panic(fmt.Sprintf("machine: negative message size %g", size))
	}
	return m.Alpha + size*m.Beta
}

// ElemBytes converts an element count to wire bytes.
func ElemBytes(elems float64) float64 { return elems * BytesPerElement }

// Compute returns the time to execute the given number of floating-point
// operations on one processor.
func (m Model) Compute(flops float64) float64 {
	if flops < 0 {
		panic(fmt.Sprintf("machine: negative flop count %g", flops))
	}
	return flops * m.Gamma
}

// DefaultThreadOverhead is the uncalibrated serial-fraction coefficient of
// the intra-rank parallel-efficiency curve: Speedup(t) = t / (1 + s·(t−1)),
// an Amdahl-style model of the per-band packing redundancy and join cost
// the threaded kernel pays. 0.03 gives Speedup(4) ≈ 3.67, the near-linear
// scaling the packed kernel shows on write-disjoint row bands; a host
// replaces it with its own measured fit via CalibrateFromScaling
// (hsumma-serve -kernel-calib).
const DefaultThreadOverhead = 0.03

// threadOverhead holds the active serial fraction as float64 bits, so the
// planner (which calls Speedup from concurrent stage-2 refinements) never
// races a calibration performed at daemon startup.
var threadOverhead atomic.Uint64

func init() { threadOverhead.Store(math.Float64bits(DefaultThreadOverhead)) }

// ThreadOverhead returns the serial fraction Speedup currently models —
// DefaultThreadOverhead unless SetThreadOverhead/CalibrateFromScaling
// replaced it.
func ThreadOverhead() float64 { return math.Float64frombits(threadOverhead.Load()) }

// SetThreadOverhead replaces the modelled serial fraction, clamped to
// [0, 1] (0 = perfect scaling, 1 = no scaling at all). NaN is ignored.
func SetThreadOverhead(s float64) {
	if math.IsNaN(s) {
		return
	}
	threadOverhead.Store(math.Float64bits(math.Min(1, math.Max(0, s))))
}

// CalibrateFromScaling fits the serial fraction from measured intra-rank
// scaling points — thread count t mapped to the observed speedup S over
// one thread. Inverting the Amdahl curve gives one estimate
// s = (t/S − 1)/(t − 1) per point; the fit is the mean
// over the usable points (t > 1 with positive speedup), clamped to [0, 1]
// and installed via SetThreadOverhead. With no usable point the overhead
// is left untouched (the 3% default stays) and ok is false. Speedup(1)
// remains exactly 1 under any calibration — serial paths stay
// bit-identical.
func CalibrateFromScaling(points map[int]float64) (fit float64, ok bool) {
	var sum float64
	var n int
	for t, s := range points {
		if t <= 1 || s <= 0 {
			continue
		}
		sum += (float64(t)/s - 1) / float64(t-1)
		n++
	}
	if n == 0 {
		return ThreadOverhead(), false
	}
	SetThreadOverhead(sum / float64(n))
	return ThreadOverhead(), true
}

// Speedup returns the modelled intra-rank speedup of the local GEMM when a
// rank multiplies with t goroutine workers (the paper's OpenMP threads
// inside each MPI process). t ≤ 1 returns exactly 1, so dividing a flop
// count by Speedup(threads) is bitwise neutral for the default
// single-threaded configuration — the invariant the virtual engines'
// bit-parity tests rely on.
func Speedup(t int) float64 {
	if t <= 1 {
		return 1
	}
	tf := float64(t)
	return tf / (1 + ThreadOverhead()*(tf-1))
}

func (m Model) String() string {
	return fmt.Sprintf("hockney{α=%.3gs, β=%.3gs/elem, γ=%.3gs/flop}", m.Alpha, m.Beta, m.Gamma)
}
