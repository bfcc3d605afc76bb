package model

import (
	"fmt"
	"math"

	"repro/internal/machine"
)

// Params fixes a problem/platform instance for the closed-form analysis.
type Params struct {
	N int // matrix dimension (n×n)
	P int // processor count (analysed as a √p×√p grid)
	B int // block size b (the paper sets B = b throughout the analysis)
	// Machine is the Hockney model (α seconds, β seconds per message
	// unit, γ seconds/flop).
	Machine machine.Model
	// Bcast is the broadcast model plugged into equation (1); defaults
	// to BinomialTree.
	Bcast Broadcast
	// ElemBytes converts matrix elements to the message units β is
	// quoted in. The paper's analysis applies β directly to element
	// counts (its BG/P validation arithmetic, α/β = 3000 > 2nb/p = 2048,
	// only holds that way), so the default 0 means 1. Set 8 to compare
	// against the byte-counting simulator.
	ElemBytes float64
}

func (p Params) elemBytes() float64 {
	if p.ElemBytes <= 0 {
		return 1
	}
	return p.ElemBytes
}

// Validate rejects non-positive parameters.
func (p Params) Validate() error {
	if p.N <= 0 || p.P <= 0 || p.B <= 0 {
		return fmt.Errorf("model: invalid params n=%d p=%d b=%d", p.N, p.P, p.B)
	}
	return nil
}

// Cost decomposes a predicted execution time the way the paper's tables do.
type Cost struct {
	Latency   float64 // α terms, seconds
	Bandwidth float64 // β terms, seconds
	Compute   float64 // 2n³/p·γ, seconds
}

// Comm returns the communication-only time (what the paper's Figures 5–7
// and 9 plot).
func (c Cost) Comm() float64 { return c.Latency + c.Bandwidth }

// Total returns communication plus computation (Figure 8's overall time).
func (c Cost) Total() float64 { return c.Comm() + c.Compute }

// Level is one grouping level of the hierarchy as the cost formula sees
// it: the group-grid dimensions I×J — the sizes of the level's vertical
// (B panels) and horizontal (A panels) communicators — and the width of
// the panels exchanged across them. The fields are real-valued so the
// analysis can treat G as continuous (∂T/∂G, the √G×√G arrangement of a
// non-square G).
type Level struct{ I, J, Width float64 }

// family is the one closed-form cost of the SUMMA family: C (M×N) += A
// (M×K)·B (K×N) on an S×T grid under a hierarchy of grouping levels
// (outermost first) over an innermost block b. Every level — and, last,
// what the levels leave of the grid, b wide — is one broadcast stage that
// moves the whole of A's and B's per-rank panels once, in K/width steps:
//
//	T = Σ_stages (K/w)·( L(J) + L(I) )·α + ( (M·K/S)·W(J) + (K·N/T)·W(I) )·β
//
// No levels is SUMMA's Table I/II row, 2·(n/b)·L(√p)·α + 2·(n²/√p)·W(√p)·β
// at M = N = K = n on √p×√p; one level of √G×√G groups is HSUMMA's (eq.
// 3–5); L(1) = W(1) = 0 makes G = 1 and G = p reproduce SUMMA exactly.
func family(M, N, K, S, T, b float64, levels []Level, m machine.Model, bc Broadcast, elemBytes float64) Cost {
	if bc == nil {
		bc = BinomialTree{}
	}
	if elemBytes <= 0 {
		elemBytes = 1
	}
	c := Cost{Compute: m.Compute(2 * M * N * K / (S * T))}
	stage := func(lv Level) {
		c.Latency += (K / lv.Width) * (bc.Latency(lv.J) + bc.Latency(lv.I)) * m.Alpha
		c.Bandwidth += (M*K/S*bc.Bandwidth(lv.J) + K*N/T*bc.Bandwidth(lv.I)) * elemBytes * m.Beta
	}
	rest := Level{I: S, J: T, Width: b}
	for _, lv := range levels {
		stage(lv)
		rest.I /= lv.I
		rest.J /= lv.J
	}
	stage(rest)
	return c
}

// family evaluates the square analysis' instance: n×n on √p×√p.
func (p Params) family(levels []Level) Cost {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	n, sq := float64(p.N), math.Sqrt(float64(p.P))
	return family(n, n, n, sq, sq, float64(p.B), levels, p.Machine, p.Bcast, p.ElemBytes)
}

// SUMMA evaluates the flat algorithm's cost (Table I/II, equation 2):
//
//	T_S(n,p) = 2·( (n/b)·L(√p)·α + (n²/√p)·W(√p)·β )
//
// The factor 2 covers the A (horizontal) and B (vertical) broadcasts.
func SUMMA(par Params) Cost { return par.family(nil) }

// HSUMMA evaluates the hierarchical algorithm's cost for G groups
// (equations 3–5 with b = B):
//
//	T_HS(n,p,G) = 2·(n/b)·( L(√G) + L(√(p/G)) )·α
//	            + 2·(n²/√p)·( W(√G) + W(√(p/G)) )·β
//
// G = 1 and G = p reproduce SUMMA exactly (L(1) = W(1) = 0).
func HSUMMA(par Params, G float64) Cost { return HSUMMASplitBlocks(par, G, par.B) }

// HSUMMASplitBlocks is HSUMMA with distinct inner block b and outer block
// B (the paper's Table II general row): the inner latency factor uses n/b
// steps, the outer one n/B.
func HSUMMASplitBlocks(par Params, G float64, outerB int) Cost {
	if G < 1 || G > float64(par.P) {
		panic(fmt.Sprintf("model: G=%g outside [1,%d]", G, par.P))
	}
	if outerB <= 0 || par.B <= 0 || outerB%par.B != 0 {
		panic(fmt.Sprintf("model: outer block %d must be a positive multiple of b=%d", outerB, par.B))
	}
	sqG := math.Sqrt(G)
	return par.family([]Level{{I: sqG, J: sqG, Width: float64(outerB)}})
}

// MinimumAtSqrtP reports the paper's condition (eq. 10): with the Van de
// Geijn broadcast, T_HS(G) has its interior minimum at G = √p iff
// α/β > 2nb/p; otherwise G = √p is a maximum and the optimum sits at the
// endpoints G ∈ {1, p}. β is taken per message unit (see Params.ElemBytes).
func MinimumAtSqrtP(par Params) bool {
	n := float64(par.N)
	p := float64(par.P)
	b := float64(par.B)
	beta := par.Machine.Beta * par.elemBytes()
	if beta == 0 {
		return true
	}
	return par.Machine.Alpha/beta > 2*n*b/p
}

// OptimalG minimises the HSUMMA communication cost over the feasible group
// counts. Candidates are the stationary point G = √p (eq. 9) and the
// endpoints; when candidates is non-nil (e.g. the divisor-constrained G
// values of a real grid) the search is restricted to it.
func OptimalG(par Params, candidates []int) (bestG int, best Cost) {
	if err := par.Validate(); err != nil {
		panic(err)
	}
	if candidates == nil {
		sq := int(math.Round(math.Sqrt(float64(par.P))))
		candidates = []int{1, sq, par.P}
		// Neighbouring powers of two around √p guard against rounding.
		for g := 2; g < par.P; g *= 2 {
			candidates = append(candidates, g)
		}
	}
	bestG = 1
	best = HSUMMA(par, 1)
	for _, g := range candidates {
		if g < 1 || g > par.P {
			continue
		}
		c := HSUMMA(par, float64(g))
		if c.Comm() < best.Comm() {
			bestG, best = g, c
		}
	}
	return bestG, best
}

// DerivativeG returns ∂T_HS/∂G evaluated numerically (central difference) —
// used by tests to confirm the stationary point at G = √p the paper proves
// analytically in equation (9).
func DerivativeG(par Params, G float64) float64 {
	h := G * 1e-6
	lo := HSUMMA(par, G-h).Comm()
	hi := HSUMMA(par, G+h).Comm()
	return (hi - lo) / (2 * h)
}
