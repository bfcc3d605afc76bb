package mpi

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/comm"
)

// payload is a reference-counted wire buffer from the size-classed pool.
// Whoever holds a reference may read data; only a holder that can prove it
// is the last one (refs == 1, see sole) may write it. The last release
// returns the buffer to the pool.
type payload struct {
	data []float64 // len is the message's element count, cap its size class
	refs atomic.Int32
}

// payloadPools holds free payloads by size class: class c serves requests
// of up to 1<<c elements with buffers of exactly that capacity.
var payloadPools [bits.UintSize]sync.Pool

func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// newPayload returns an n-element payload holding one reference. Its
// contents are whatever the previous user left: callers fill it.
func newPayload(n int) *payload {
	c := sizeClass(n)
	pl, _ := payloadPools[c].Get().(*payload)
	if pl == nil {
		pl = &payload{data: make([]float64, 1<<c)}
	}
	pl.data = pl.data[:n]
	pl.refs.Store(1)
	return pl
}

// copyPayload returns a payload holding a copy of data.
func copyPayload(data []float64) *payload {
	pl := newPayload(len(data))
	copy(pl.data, data)
	return pl
}

// retain adds a reference on behalf of a new holder. Only a current holder
// may call it, which is what makes sole's answer stable.
func (pl *payload) retain() { pl.refs.Add(1) }

// release drops the caller's reference; the last one recycles the buffer.
func (pl *payload) release() {
	if pl.refs.Add(-1) == 0 {
		payloadPools[sizeClass(cap(pl.data))].Put(pl)
	}
}

// sole reports whether the caller holds the only reference. New references
// come only from existing holders, so a true answer stays true until the
// caller itself shares the payload — and the atomic load orders every
// other holder's last read before the caller's first write.
func (pl *payload) sole() bool { return pl.refs.Load() == 1 }

// held returns the payload behind a panel's tile, nil for an empty panel.
func held(p *comm.Panel) *payload {
	pl, _ := p.Ref.(*payload)
	return pl
}

// published returns the payload of a panel about to be shared; sharing a
// panel that was never packed or received into is a programming error.
func published(p *comm.Panel) *payload {
	pl := held(p)
	if pl == nil {
		panic("mpi: sharing an empty panel (Pack it or receive into it first)")
	}
	return pl
}

// adopt makes pl the panel's storage; the panel takes over the caller's
// reference. The panel must hold nothing (see drop).
func adopt(p *comm.Panel, pl *payload) {
	p.Ref = pl
	p.Tile.Data = pl.data
}

// drop releases the panel's storage, leaving it empty.
func drop(p *comm.Panel) {
	if pl := held(p); pl != nil {
		p.Ref = nil
		p.Tile.Data = nil
		pl.release()
	}
}

// writable returns the panel's storage after making the caller its only
// holder: in place when it already is, otherwise on a fresh payload —
// carrying the old contents over when keep is set (copy-on-write), leaving
// them unspecified when the caller is about to overwrite everything.
func writable(p *comm.Panel, keep bool) []float64 {
	old := held(p)
	if old != nil && old.sole() {
		return old.data
	}
	pl := newPayload(p.Elems())
	if old != nil {
		if keep {
			copy(pl.data, old.data)
		}
		drop(p)
	}
	adopt(p, pl)
	return pl.data
}
