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
	"fmt"
	"sort"

	"repro/internal/blas"
	"repro/internal/matrix"
	"repro/internal/sched"
)

// Exec describes how a rank executes its local multiplies: the intra-rank
// thread budget (the Go analog of OpenMP threads inside an MPI process;
// values ≤ 1 mean serial) and the optional sub-cubic local kernel. It
// travels with every Gemm call so all three transports — live, goroutine
// virtual and event virtual — agree on both the arithmetic performed and
// the flop count charged.
type Exec struct {
	// Threads is the rank's goroutine budget for the local multiply.
	Threads int
	// Strassen selects blas.StrassenGemm as the local kernel; the virtual
	// transports then charge blas.StrassenFlops instead of 2·m·n·k.
	Strassen bool
	// Cutoff is the Strassen recursion cutoff (≤ 0 selects the blas
	// default); ignored unless Strassen is set.
	Cutoff int
}

// Serial is the default execution: one thread, classic kernel.
var Serial = Exec{Threads: 1}

// Flops returns the flop count this execution charges for an m×k by k×n
// local multiply: blas.StrassenFlops under the sub-cubic kernel, the
// conventional 2·m·n·k otherwise — evaluated in exactly the historical
// association order, so non-Strassen virtual times stay bit-identical.
func (x Exec) Flops(m, n, k int) float64 {
	if x.Strassen {
		return blas.StrassenFlops(m, n, k, x.Cutoff)
	}
	return blas.FlopsGemm(m, n, k)
}

// Panel is a tile that is its own wire buffer: the pivot panels of the
// SUMMA family, the rotating tiles of Cannon and Fox. See the package
// comment for who may read and write it when.
type Panel struct {
	// Tile is the panel as a matrix. Under the live transport Tile.Data
	// holds the elements once the panel has been packed or received into
	// (nil before); under a virtual transport it is always nil and only
	// the shape travels — the Hockney cost and the traffic accounting
	// depend on Rows·Cols alone.
	Tile matrix.Dense
	// Ref belongs to the transport that allocated the panel: the live
	// transport keeps its handle on the (possibly shared) storage behind
	// Tile.Data here. Algorithms never touch it.
	Ref any
}

// Elems returns the panel's element count, its size on the wire.
func (p *Panel) Elems() int { return p.Tile.Rows * p.Tile.Cols }

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

	// NewPanel allocates an empty rows×cols panel.
	NewPanel(rows, cols int) *Panel
	// NewTile allocates a zeroed rows×cols local matrix that never
	// travels (accumulators, scratch).
	NewTile(rows, cols int) *matrix.Dense
	// Pack fills the panel from a tile (or view) of the same shape.
	Pack(dst *Panel, src *matrix.Dense)
	// Repack fills dst from the dst-shaped window of src rooted at (i,j).
	// When the window is all of src (HSUMMA with B = b: the inner panel
	// *is* the outer panel) dst takes over src's contents by reference
	// instead of copying them.
	Repack(dst, src *Panel, i, j int)
	// Gemm performs the local update C += A·B under the given execution
	// descriptor: real arithmetic (packed, threaded or Strassen per x) on
	// the live transport, a compute-clock advance of x.Flops(m,n,k) scaled
	// by the shared parallel-efficiency curve (machine.Speedup) on the
	// virtual ones.
	Gemm(c, a, b *matrix.Dense, x Exec)
}

// CheckPack panics unless src's shape is dst's — shared by the transports
// so all enforce the same contract.
func CheckPack(dst *Panel, src *matrix.Dense) {
	if src.Rows != dst.Tile.Rows || src.Cols != dst.Tile.Cols {
		panic(fmt.Sprintf("comm: pack %dx%d tile into %dx%d panel", src.Rows, src.Cols, dst.Tile.Rows, dst.Tile.Cols))
	}
}

// CheckRepack panics unless the dst-shaped window rooted at (i,j) lies
// inside src.
func CheckRepack(dst, src *Panel, i, j int) {
	d, s := &dst.Tile, &src.Tile
	if i < 0 || j < 0 || i+d.Rows > s.Rows || j+d.Cols > s.Cols {
		panic(fmt.Sprintf("comm: repack %dx%d window at (%d,%d) outside %dx%d panel", d.Rows, d.Cols, i, j, s.Rows, s.Cols))
	}
}

// SplitGroups computes MPI_Comm_split's grouping from every member's
// (colour, key): the member lists (old ranks) of each new communicator,
// colours ascending, each list ordered by (key, old rank); negative
// colours are excluded. Every transport builds its Split result from
// this one function, so the engines cannot drift on communicator
// structure — the invariant the bit-parity tests rely on.
func SplitGroups(colors, keys map[int]int) [][]int {
	byColor := map[int][]int{}
	for r, col := range colors {
		if col < 0 {
			continue
		}
		byColor[col] = append(byColor[col], r)
	}
	cols := make([]int, 0, len(byColor))
	for col := range byColor {
		cols = append(cols, col)
	}
	sort.Ints(cols)
	groups := make([][]int, 0, len(cols))
	for _, col := range cols {
		members := byColor[col]
		sort.Slice(members, func(i, j int) bool {
			ki, kj := keys[members[i]], keys[members[j]]
			if ki != kj {
				return ki < kj
			}
			return members[i] < members[j]
		})
		groups = append(groups, members)
	}
	return groups
}
