package topo

import (
	"fmt"
	"sort"
)

// Hier is the two-level hierarchical arrangement of HSUMMA: the S×T process
// grid is partitioned into an I×J grid of groups, each group an internal
// (S/I)×(T/J) grid (paper Section III, Figure 2). Following the paper's
// notation, a process is addressed P(x,y)(i,j): group coordinates (x,y) in
// the I×J group grid, inner coordinates (i,j) inside the group.
type Hier struct {
	Grid Grid
	I    int // group rows
	J    int // group columns
}

// NewHier validates divisibility (I | S, J | T) and returns the hierarchy.
func NewHier(g Grid, i, j int) (Hier, error) {
	if i <= 0 || j <= 0 {
		return Hier{}, fmt.Errorf("topo: invalid group grid %dx%d", i, j)
	}
	if g.S%i != 0 {
		return Hier{}, fmt.Errorf("topo: group rows %d do not divide grid rows %d", i, g.S)
	}
	if g.T%j != 0 {
		return Hier{}, fmt.Errorf("topo: group cols %d do not divide grid cols %d", j, g.T)
	}
	return Hier{Grid: g, I: i, J: j}, nil
}

// Groups returns the number of groups G = I×J.
func (h Hier) Groups() int { return h.I * h.J }

// InnerS and InnerT are the per-group grid dimensions (the paper's s/I, t/J).
func (h Hier) InnerS() int { return h.Grid.S / h.I }

// InnerT returns the number of process columns inside one group.
func (h Hier) InnerT() int { return h.Grid.T / h.J }

// Decompose maps a rank to its hierarchical address (x,y,i,j): group (x,y),
// inner position (i,j).
func (h Hier) Decompose(rank int) (x, y, i, j int) {
	gi, gj := h.Grid.Coords(rank)
	return gi / h.InnerS(), gj / h.InnerT(), gi % h.InnerS(), gj % h.InnerT()
}

// Communicator colourings. Ranks sharing a colour form one communicator.

// RowColor groups ranks of one grid row: the row_comm used for the inner
// horizontal broadcast of A. Inside HSUMMA the inner row communicator is
// additionally split per group, which InnerRowColor provides.
func (g Grid) RowColor(rank int) int {
	i, _ := g.Coords(rank)
	return i
}

// ColColor groups ranks of one grid column: col_comm for the inner vertical
// broadcast of B.
func (g Grid) ColColor(rank int) int {
	_, j := g.Coords(rank)
	return j
}

// InnerRowColor groups ranks that share a group and an inner row — the
// row_comm of Algorithm 1 (communicator between P(x,y)(i,*)). Size T/J.
func (h Hier) InnerRowColor(rank int) int {
	x, y, i, _ := h.Decompose(rank)
	return (x*h.J+y)*h.InnerS() + i
}

// FactorGroups chooses a feasible I×J decomposition with I·J = G for a G
// sweep over an S×T grid: among all factorisations with I | S and J | T it
// picks the one whose per-group grid (S/I)×(T/J) is closest to square,
// matching the paper's preference for square group arrangements (its
// analysis assumes √G×√G), and the smallest I among equally square ones.
// Only the divisors of S are tried, so a call costs O(√S + d(S)). Returns
// an error when no factorisation exists.
func FactorGroups(g Grid, G int) (Hier, error) {
	if G <= 0 {
		return Hier{}, fmt.Errorf("topo: invalid group count %d", G)
	}
	var best Hier
	var bestScore float64
	for _, i := range divisors(g.S) {
		if G%i != 0 || g.T%(G/i) != 0 {
			continue
		}
		h := Hier{Grid: g, I: i, J: G / i}
		// Aspect ratio of the inner grid, max/min: 1 is square.
		a, b := float64(h.InnerS()), float64(h.InnerT())
		score := a / b
		if b > a {
			score = b / a
		}
		if best.I == 0 || score < bestScore {
			best, bestScore = h, score
		}
	}
	if best.I == 0 {
		return Hier{}, fmt.Errorf("topo: no I×J=%d factorisation divides grid %v", G, g)
	}
	return best, nil
}

// ValidGroupCounts lists every G in [1, p] that admits a factorisation on
// grid g, in increasing order: the products I·J of a divisor I of S and a
// divisor J of T. These are the x-axis points of the paper's G sweeps
// (Figures 5, 6, 8).
func ValidGroupCounts(g Grid) []int {
	seen := make(map[int]bool)
	var out []int
	for _, i := range divisors(g.S) {
		for _, j := range divisors(g.T) {
			if !seen[i*j] {
				seen[i*j] = true
				out = append(out, i*j)
			}
		}
	}
	sort.Ints(out)
	return out
}

// divisors returns the positive divisors of n in increasing order (none
// for n ≤ 0).
func divisors(n int) []int {
	var lo, hi []int
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			lo = append(lo, d)
			if d*d != n {
				hi = append(hi, n/d)
			}
		}
	}
	for k := len(hi) - 1; k >= 0; k-- {
		lo = append(lo, hi[k])
	}
	return lo
}

func (h Hier) String() string {
	return fmt.Sprintf("%v grid as %dx%d groups of %dx%d", h.Grid, h.I, h.J, h.InnerS(), h.InnerT())
}
