package mpi

import (
	"time"

	"repro/internal/blas"
	"repro/internal/comm"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Transport adapts a *Comm to the transport-agnostic comm.Comm interface:
// the live execution path, where panels carry real matrix elements and
// Gemm performs real floating-point work. The algorithm layer
// (internal/core) sees only comm.Comm, so the same code
// also runs on the virtual transport in internal/simnet.
//
// Panels move by reference (see the package comment): a panel's tile
// aliases a pooled payload that SendRecv and Bcast share with the
// receivers, which adopt it as their tile, so a pivot panel is written
// once — by the Pack on its owner — however many ranks end up multiplying
// with it.
type Transport struct {
	c *Comm
}

// AsComm wraps an mpi communicator as a transport-agnostic one.
func AsComm(c *Comm) comm.Comm { return Transport{c} }

// Rank returns the caller's rank within the communicator.
func (t Transport) Rank() int { return t.c.Rank() }

// Size returns the number of ranks in the communicator.
func (t Transport) Size() int { return t.c.Size() }

// Split partitions the communicator; a negative colour returns nil.
func (t Transport) Split(color, key int) comm.Comm {
	nc := t.c.Split(color, key)
	if nc == nil {
		return nil
	}
	return Transport{nc}
}

// SendRecv performs the full-duplex shift primitive; with send == recv the
// panel's old storage goes to dst and the tile becomes src's.
func (t Transport) SendRecv(dst, sendTag int, send *comm.Panel, src, recvTag int, recv *comm.Panel) {
	start := time.Now()
	defer t.c.finishComm(start, trace.PhaseShift, int64(8*(send.Elems()+recv.Elems())), 2)
	pl := published(send)
	pl.retain()
	t.c.post(dst, sendTag, pl)
	drop(recv)
	adopt(recv, t.c.fetch(src, recvTag, recv.Elems()))
}

// Bcast executes the named broadcast schedule over the panel.
func (t Transport) Bcast(alg sched.Algorithm, root int, p *comm.Panel) {
	t.c.bcast(alg, root, nil, p)
}

// NewPanel returns an empty panel; it gets storage when it is first packed
// or received into, and gives it back when the program ends.
func (t Transport) NewPanel(rows, cols int) *comm.Panel {
	p := &comm.Panel{Tile: matrix.Dense{Rows: rows, Cols: cols, Stride: cols}}
	w, wr := t.c.world, t.c.WorldRank()
	w.panels[wr] = append(w.panels[wr], p)
	return p
}

// NewTile allocates a zeroed local matrix with real storage.
func (t Transport) NewTile(rows, cols int) *matrix.Dense { return matrix.New(rows, cols) }

// Pack copies the tile's elements into storage only this rank holds.
func (t Transport) Pack(dst *comm.Panel, src *matrix.Dense) {
	comm.CheckPack(dst, src)
	src.Pack(writable(dst, false)[:0])
}

// Repack copies the window out of src, or — when the window is all of
// src — shares src's storage.
func (t Transport) Repack(dst, src *comm.Panel, i, j int) {
	comm.CheckRepack(dst, src, i, j)
	if dst.Tile.Rows != src.Tile.Rows || dst.Tile.Cols != src.Tile.Cols {
		t.Pack(dst, src.Tile.View(i, j, dst.Tile.Rows, dst.Tile.Cols))
		return
	}
	pl := published(src)
	pl.retain()
	drop(dst)
	adopt(dst, pl)
}

// Gemm performs the real local update C += A·B: the packed kernel
// serially for threads ≤ 1, goroutine-parallel over write-disjoint C row
// bands otherwise — each rank's local multiply is the hybrid layer's
// OpenMP region. The time spent here feeds the rank's GemmSeconds and,
// when tracing, a compute span — the other half of the paper's
// comm/compute breakdown.
func (t Transport) Gemm(c, a, b *matrix.Dense, threads int) {
	start := time.Now()
	if threads <= 1 {
		blas.Gemm(c, a, b)
	} else {
		blas.ParallelGemm(c, a, b, threads)
	}
	w := t.c.world
	wr := t.c.WorldRank()
	dt := time.Since(start).Seconds()
	w.stats[wr].GemmSeconds += dt
	if w.rec != nil {
		w.rec.RankThreads(wr, trace.PhaseGemm, start.Sub(w.epoch).Seconds(), dt, threads)
	}
}
