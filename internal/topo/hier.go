package topo

import "fmt"

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
// analysis assumes √G×√G). Returns an error when no factorisation exists.
func FactorGroups(g Grid, G int) (Hier, error) {
	if G <= 0 {
		return Hier{}, fmt.Errorf("topo: invalid group count %d", G)
	}
	bestSet := false
	var best Hier
	var bestScore float64
	for i := 1; i <= G; i++ {
		if G%i != 0 {
			continue
		}
		j := G / i
		h, err := NewHier(g, i, j)
		if err != nil {
			continue
		}
		// Aspect-ratio score of the inner grid: |log(innerS/innerT)|
		// monotone proxy without math import — use ratio max/min.
		a, b := float64(h.InnerS()), float64(h.InnerT())
		score := a / b
		if b > a {
			score = b / a
		}
		if !bestSet || score < bestScore {
			best, bestScore, bestSet = h, score, true
		}
	}
	if !bestSet {
		return Hier{}, fmt.Errorf("topo: no I×J=%d factorisation divides grid %v", G, g)
	}
	return best, nil
}

// ValidGroupCounts lists every G in [1, p] that admits a factorisation on
// grid g, in increasing order. These are the x-axis points of the paper's
// G sweeps (Figures 5, 6, 8).
func ValidGroupCounts(g Grid) []int {
	var out []int
	for G := 1; G <= g.Size(); G++ {
		if _, err := FactorGroups(g, G); err == nil {
			out = append(out, G)
		}
	}
	return out
}

func (h Hier) String() string {
	return fmt.Sprintf("%v grid as %dx%d groups of %dx%d", h.Grid, h.I, h.J, h.InnerS(), h.InnerT())
}
