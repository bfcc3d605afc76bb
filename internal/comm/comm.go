// Package comm defines the transport-agnostic communicator interface the
// SUMMA-family algorithms are written against. Every algorithm in
// internal/core is implemented exactly once, in terms
// of this interface, and runs unchanged on every transport:
//
//   - the live transport (internal/mpi): ranks are goroutines, panels
//     carry real matrix elements in pooled storage that moves between
//     ranks by reference, Gemm executes real floating-point work, and
//     communication time is wall-clock — the correctness path;
//
//   - the virtual transports (internal/simnet, internal/evsim): panels
//     carry only their shape, Gemm advances a per-rank Hockney compute
//     clock, and every transfer advances virtual time — the timing path
//     that reproduces the paper's BlueGene/P and exascale figures at rank
//     counts no single machine could host with real data.
//
// Both transports execute the same broadcast schedules (internal/sched) and
// count the same per-rank messages and bytes, so a simulated run is
// traffic-identical to a live run of the same configuration — the invariant
// the parity tests in internal/engine assert.
//
// The interface has two halves. The communication half (Rank/Size/Split/
// SendRecv/Bcast) is the MPI subset the algorithms call: the row and
// column broadcasts of the paper's Algorithm 1 and the full-duplex shift
// of Cannon's and Fox's algorithms. The data half (NewPanel/NewTile/Pack/
// Repack/Gemm) routes every touch of matrix element storage through the
// transport, which is what lets the virtual transports elide storage
// entirely: a simulated 16384-rank run allocates shape headers, not
// gigabytes of tiles.
//
// A panel feeds one side of the local update, its Role: an LHS panel is
// rows×width, a column panel of A, and an RHS panel is width×cols, a row
// panel of B; the width is the contraction depth k. On the live transport
// Panel.Tile.Data does not hold the panel row-major: it holds the
// micro-kernel's packed micro-panels (blas.PackLHS, blas.PackRHS). The
// rank that owns a panel packs it once, in Pack, the broadcast ships those
// bytes, and every receiver's Gemm multiplies them where they are. That is
// also why Repack windows run along k only: such a window is one
// contiguous run per micro-panel.
//
// # Data-plane contract
//
// Everything that travels is a Panel: a rows×cols tile that is its own
// wire buffer. The rules, identical on every transport:
//
//   - Pack gives the caller exclusive storage and fills it. Until the
//     panel is next sent the caller may also write it — nobody else can
//     see it. Repack fills a panel from a window of another one; the
//     result may share the source's storage, so it is read-only.
//
//   - SendRecv's send half and Bcast on the root *publish* the panel:
//     the transport may hand the very same storage to the receivers, so
//     from then on the sender holds it read-only, exactly like the
//     receivers. The sender may keep reading it; its next Pack
//     or Repack into the panel detaches it from the readers first (they
//     keep what they were given). Sends are eager: they never block.
//
//   - SendRecv's receive half and Bcast on a non-root *replace* the
//     panel's contents: Panel.Tile is valid — and read-only — until the
//     caller's next operation on that panel. What the panel held before
//     is gone, so never keep a view of Panel.Tile across such a call.
//
//   - A panel that was never packed or received into has no contents;
//     ranks that sit a broadcast out simply never read theirs.
//
// Local operand tiles handed to an algorithm (aLoc, bLoc) are read-only
// too: the one-shot façade passes views of the caller's matrices.
package comm

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/matrix"
	"repro/internal/sched"
)

// Role is the side of the local update C += A·B a panel feeds.
type Role uint8

const (
	// LHS is a rows×k panel of A.
	LHS Role = iota
	// RHS is a k×cols panel of B.
	RHS
)

// Panel is a tile that is its own wire buffer: the pivot panels of the
// SUMMA family, the rotating tiles of Cannon and Fox. See the package
// comment for who may read and write it when.
type Panel struct {
	// Tile is the panel's shape and storage. Under the live transport
	// Tile.Data holds the Rows·Cols elements in the kernel's packed layout
	// for Role once the panel has been packed or received into (nil
	// before) — not row-major, so Tile.At is only meaningful where every
	// element is equal; under a virtual transport it is always nil and
	// only the shape travels — the Hockney cost and the traffic
	// accounting depend on Rows·Cols alone.
	Tile matrix.Dense
	// Role is the side of the product the panel feeds; it fixes the
	// packed layout and which dimension is the depth.
	Role Role
	// Ref belongs to the transport that allocated the panel: the live
	// transport keeps its handle on the (possibly shared) storage behind
	// Tile.Data here. Algorithms never touch it.
	Ref any
}

// Elems returns the panel's element count, its size on the wire.
func (p *Panel) Elems() int { return p.Tile.Rows * p.Tile.Cols }

// Depth returns the panel's extent along the contraction: its columns as
// an LHS panel, its rows as an RHS one.
func (p *Panel) Depth() int {
	if p.Role == LHS {
		return p.Tile.Cols
	}
	return p.Tile.Rows
}

// Header returns an empty rows×cols panel for role: what every
// transport's NewPanel starts from.
func Header(rows, cols int, role Role) Panel {
	return Panel{Tile: matrix.Dense{Rows: rows, Cols: cols, Stride: cols}, Role: role}
}

// Comm is a communicator: an ordered group of ranks with an isolated
// message namespace, plus the data-plane hooks that let a transport decide
// whether matrix elements physically exist.
//
// Collective calls (Split, Bcast) must be made by every member of the
// communicator in the same order — the standard MPI requirement both
// transports rely on to match operations without central coordination.
type Comm interface {
	// Rank returns the caller's rank within the communicator.
	Rank() int
	// Size returns the number of ranks in the communicator.
	Size() int
	// Split partitions the communicator exactly like MPI_Comm_split:
	// ranks passing the same colour form a new communicator ordered by
	// (key, old rank). A negative colour returns nil (MPI_UNDEFINED).
	Split(color, key int) Comm

	// SendRecv publishes send to dst (comm rank) under sendTag and
	// replaces recv's contents with the message from src under recvTag,
	// concurrently — the full-duplex shift primitive of Cannon's and Fox's
	// algorithms. The send half is eager; recv's element count must equal
	// the message's exactly. send and recv may be the same panel (rotate
	// in place).
	SendRecv(dst, sendTag int, send *Panel, src, recvTag int, recv *Panel)
	// Bcast broadcasts root's panel to every rank, executing the named
	// algorithm's schedule from internal/sched transfer by transfer:
	// binomial forwards the whole panel, Van de Geijn reassembles it in
	// place from p segments.
	Bcast(alg sched.Algorithm, root int, p *Panel)

	// NewPanel allocates an empty rows×cols panel feeding role's side of
	// Gemm.
	NewPanel(rows, cols int, role Role) *Panel
	// NewTile allocates a zeroed rows×cols local matrix that never
	// travels (accumulators, scratch).
	NewTile(rows, cols int) *matrix.Dense
	// Pack fills the panel from a tile (or view) of the same shape, in
	// the layout of the panel's role.
	Pack(dst *Panel, src *matrix.Dense)
	// Repack fills dst from the window of src that starts off along k and
	// is dst's depth deep; the two share a role and the other dimension.
	// When the window is all of src (HSUMMA with B = b: the inner panel
	// *is* the outer panel) dst takes over src's contents by reference
	// instead of copying them.
	Repack(dst, src *Panel, off int)
	// Gemm performs the local update C += A·B, a an LHS panel and b an
	// RHS one, on a budget of threads goroutines (the Go analog of OpenMP
	// threads inside an MPI process; values ≤ 1 mean serial): real packed
	// arithmetic on the live transport, a compute-clock advance of
	// blas.FlopsGemm(m,n,k) scaled by the shared parallel-efficiency curve
	// (machine.Speedup) on the virtual ones.
	Gemm(c *matrix.Dense, a, b *Panel, threads int)
}

// CheckPack panics unless src's shape is dst's — shared by the transports
// so all enforce the same contract.
func CheckPack(dst *Panel, src *matrix.Dense) {
	if src.Rows != dst.Tile.Rows || src.Cols != dst.Tile.Cols {
		panic(fmt.Sprintf("comm: pack %dx%d tile into %dx%d panel", src.Rows, src.Cols, dst.Tile.Rows, dst.Tile.Cols))
	}
}

// CheckRepack panics unless dst is a window of src along k: the same role
// and other dimension, and depth [off, off+dst.Depth()) inside src's.
func CheckRepack(dst, src *Panel, off int) {
	d, s := &dst.Tile, &src.Tile
	same := d.Rows == s.Rows
	if dst.Role == RHS {
		same = d.Cols == s.Cols
	}
	if dst.Role != src.Role || !same || off < 0 || off+dst.Depth() > src.Depth() {
		panic(fmt.Sprintf("comm: repack %dx%d panel (role %d) at depth %d from %dx%d panel (role %d)",
			d.Rows, d.Cols, dst.Role, off, s.Rows, s.Cols, src.Role))
	}
}

// CheckGemm panics unless C += A·B is well-formed: a an LHS panel, b an
// RHS one, of matching shapes.
func CheckGemm(c *matrix.Dense, a, b *Panel) {
	at, bt := &a.Tile, &b.Tile
	if a.Role != LHS || b.Role != RHS || at.Cols != bt.Rows || c.Rows != at.Rows || c.Cols != bt.Cols {
		panic(fmt.Sprintf("comm: gemm shape mismatch C(%dx%d) += A(%dx%d, role %d)*B(%dx%d, role %d)",
			c.Rows, c.Cols, at.Rows, at.Cols, a.Role, bt.Rows, bt.Cols, b.Role))
	}
}

// SplitGroups computes MPI_Comm_split's grouping from every member's
// (colour, key), indexed by old rank: the member lists (old ranks) of each
// new communicator, colours ascending, each list ordered by (key, old
// rank); negative colours are excluded. Every transport builds its Split
// result from this one function, so the engines cannot drift on
// communicator structure — the invariant the bit-parity tests rely on.
func SplitGroups(colors, keys []int) [][]int {
	order := make([]int, 0, len(colors))
	for r, col := range colors {
		if col >= 0 {
			order = append(order, r)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(colors[a], colors[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	var groups [][]int
	for lo := 0; lo < len(order); {
		hi := lo + 1
		for hi < len(order) && colors[order[hi]] == colors[order[lo]] {
			hi++
		}
		groups = append(groups, order[lo:hi:hi])
		lo = hi
	}
	return groups
}
