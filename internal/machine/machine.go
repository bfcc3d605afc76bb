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

import "fmt"

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

// ThreadOverhead is the serial-fraction coefficient of the intra-rank
// parallel-efficiency curve: Speedup(t) = t / (1 + s·(t−1)), an
// Amdahl-style model of the per-band packing redundancy and join cost the
// threaded kernel pays. 0.03 gives Speedup(4) ≈ 3.67, the near-linear
// scaling the packed kernel shows on write-disjoint row bands. It is a
// constant, so every plan score and simulated compute time is a function of
// its inputs alone.
const ThreadOverhead = 0.03

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
	return tf / (1 + ThreadOverhead*(tf-1))
}

func (m Model) String() string {
	return fmt.Sprintf("hockney{α=%.3gs, β=%.3gs/elem, γ=%.3gs/flop}", m.Alpha, m.Beta, m.Gamma)
}
