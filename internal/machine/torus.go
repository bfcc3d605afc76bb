package machine

// The BlueGene/P interconnect geometry: compute nodes
// arranged in a 3D torus (Shaheen: 16 racks of 1024 nodes), four cores per
// node in VN mode, with messages wormhole-routed along shortest torus
// paths. The paper observes that "mapping communication layouts to network
// hardware on BlueGene/P impacts the communication performance" (the
// Figure 8 "zigzags", citing Balaji et al.); Torus provides the
// rank→coordinate mapping and hop-distance metric that lets the simulator
// reproduce that mapping sensitivity as an ablation.

import "fmt"

// Torus is an X×Y×Z node torus with CoresPerNode cores per node. MPI ranks
// map to cores in the BG/P default XYZT order: consecutive ranks fill a
// node's cores, consecutive nodes advance along X, then Y, then Z.
type Torus struct {
	X, Y, Z      int
	CoresPerNode int
}

// ForCores returns the most cubic torus holding exactly p cores in VN mode
// (4 cores/node). It errors when p is not a multiple of 4 or the node
// count has no 3-factor decomposition (never the case for powers of two).
func ForCores(p int) (Torus, error) {
	const vn = 4
	if p <= 0 || p%vn != 0 {
		return Torus{}, fmt.Errorf("torus: %d cores is not a positive multiple of %d", p, vn)
	}
	nodes := p / vn
	// Most cubic X ≤ Y ≤ Z factorisation of the node count.
	bestX, bestY, bestZ := 1, 1, nodes
	for x := 1; x*x*x <= nodes; x++ {
		if nodes%x != 0 {
			continue
		}
		rem := nodes / x
		for y := x; y*y <= rem; y++ {
			if rem%y != 0 {
				continue
			}
			z := rem / y
			// Later candidates are more cubic (x grows, spread shrinks).
			if z-x <= bestZ-bestX {
				bestX, bestY, bestZ = x, y, z
			}
		}
	}
	return Torus{X: bestX, Y: bestY, Z: bestZ, CoresPerNode: vn}, nil
}

// Nodes returns the node count.
func (t Torus) Nodes() int { return t.X * t.Y * t.Z }

// Cores returns the total core (rank) count.
func (t Torus) Cores() int { return t.Nodes() * t.CoresPerNode }

// NodeCoord maps a rank to its node's torus coordinates.
func (t Torus) NodeCoord(rank int) (x, y, z int) {
	if rank < 0 || rank >= t.Cores() {
		panic(fmt.Sprintf("torus: rank %d outside %d cores", rank, t.Cores()))
	}
	node := rank / t.CoresPerNode
	return node % t.X, (node / t.X) % t.Y, node / (t.X * t.Y)
}

// Distance returns the torus Manhattan hop count between two ranks' nodes
// (0 when they share a node).
func (t Torus) Distance(a, b int) int {
	ax, ay, az := t.NodeCoord(a)
	bx, by, bz := t.NodeCoord(b)
	return wrapDist(ax, bx, t.X) + wrapDist(ay, by, t.Y) + wrapDist(az, bz, t.Z)
}

func wrapDist(a, b, dim int) int {
	d := a - b
	if d < 0 {
		d = -d
	}
	if dim-d < d {
		d = dim - d
	}
	return d
}

// LinkCost returns the bandwidth multiplier for a transfer between two
// ranks under wormhole routing: a message of distance d occupies d links,
// so its effective share of the network is d times that of a single-hop
// message. Same-node transfers (through shared memory) cost as one hop.
func (t Torus) LinkCost(a, b int) float64 {
	d := t.Distance(a, b)
	if d < 1 {
		return 1
	}
	return float64(d)
}

func (t Torus) String() string {
	return fmt.Sprintf("%dx%dx%d torus, %d cores/node", t.X, t.Y, t.Z, t.CoresPerNode)
}
