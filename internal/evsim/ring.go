package evsim

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Ring capacity per stream class. 256 events of 24 bytes is 6 KB a ring:
// a 16384-rank world with one class per rank buffers ~100 MB, and a
// SUMMA-family world, whose classes are few, next to nothing. Each
// producer park/wake is amortised over half a ring (the producer is woken
// at the half-drained mark, so it refills half a ring per wake).
const (
	ringBits = 8
	ringSize = 1 << ringBits
	ringMask = ringSize - 1
	// ringRefill is the hysteresis mark: a parked producer is woken only
	// once this much space is free. Waking on the first freed slot would
	// resume it to push one event and park again — exactly the per-call
	// park/wake cycle this engine exists to avoid.
	ringRefill = ringSize / 2
	// The ring goes back to its producer a chunk at a time: a chunk is
	// free once every member of the class has read past it.
	chunkBits = ringBits - 2
	chunkSize = 1 << chunkBits
	numChunks = ringSize / chunkSize
)

// event is one recorded communication (or compute) call, 24 bytes and
// pointer-free, so the garbage collector never scans a ring. slot names
// the communicator by the order in which the recording rank obtained it
// (0 is the world, then each Split in program order); every member of the
// class resolves it through its own table. The integer fields are
// kind-specific:
//
//	evBcast:  a=root             c=elems  d=per-comm op sequence
//	evSRSend: a=dst   b=sendTag  c=elems  d=caller's comm rank
//	evSRRecv: a=src   b=recvTag  c=elems
//	evGemm:   a=C rows (A rows)  b=C cols (B cols)  c=inner dim (A cols)
//	          d=threads
type event struct {
	a, b, c, d int32
	slot       int32
	kind       uint8
	alg        uint8 // broadcast algorithm code (evBcast only)
}

const (
	evBcast = iota
	evSRSend
	evSRRecv
	evGemm
)

// ring is the event queue of one stream class: a single producer — the
// class representative — and one read cursor per member, all of them
// advanced by the single consumer. tail is the producer's; head is the
// first slot the producer may not overwrite yet, advanced a chunk at a
// time when the class's slowest member has passed the chunk. The producer
// parks on the embedded cond when the ring is full; members that reach
// the tail wait through the world doorbell instead, flagged by hungry so
// the producer rings it once per empty→non-empty transition.
type ring struct {
	buf  *[ringSize]event // fixed-size array: index masking needs no bounds check
	head atomic.Uint64    // first slot not yet passed by every member
	_    [48]byte         // keep the producer's tail off the consumer's line
	tail atomic.Uint64    // next slot to fill

	mu       sync.Mutex
	cond     *sync.Cond
	parked   atomic.Bool // producer is (about to be) parked on cond
	sleeping bool        // producer is waiting on cond (guarded by mu)
	hungry   atomic.Bool // a member wants a doorbell on next publish
	done     atomic.Bool // producer finished its program

	// Consumer side.
	w       *World
	class   int32
	rep     int32 // the representative's world rank
	members int32
	passed  [numChunks]int32 // members past each in-flight chunk
	waiters []int32          // members parked at the tail
}

func newRing(w *World, class, rep int32) *ring {
	r := &ring{buf: new([ringSize]event), w: w, class: class, rep: rep}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// publishEvery batches the producer's tail publication: a sequentially
// consistent store costs a full fence, so paying it per event would be
// ~15M fences per full-scale run. Unpublished events are made visible by
// the next periodic publish, a hungry member's doorbell, or the
// producer's next blocking point (ring full, split, finish).
const publishEvery = 16

// hashPrime is the 64-bit FNV prime; see note.
const hashPrime = 1099511628211

// note folds one event into the producer's running stream hash and count:
// one lane per 8-byte word of the event, so the three multiply chains run
// side by side. Each step is a bijection of its lane for a given word, so
// two equally long streams differing anywhere end with different hashes
// unless later differences cancel exactly.
func (p *producer) note(ev *event) {
	p.sum[0] = bits.RotateLeft64((p.sum[0]^(uint64(uint32(ev.a))|uint64(uint32(ev.b))<<32))*hashPrime, 27)
	p.sum[1] = bits.RotateLeft64((p.sum[1]^(uint64(uint32(ev.c))|uint64(uint32(ev.d))<<32))*hashPrime, 27)
	p.sum[2] = bits.RotateLeft64((p.sum[2]^(uint64(uint32(ev.slot))|uint64(ev.kind)<<32|uint64(ev.alg)<<40))*hashPrime, 27)
	p.events++
}

// push records one event. A follower takes a token before it records and
// then only folds the event into its stream hash; the representative also
// appends it to the class ring, parking when the ring is full until the
// class's slowest member frees half the ring or the world aborts. The
// producer caches the ring's head (chead) and owns its tail (ctail), so
// the fast path is one plain store plus a flag probe.
func (p *producer) push(ev event) {
	r := p.ring
	if r == nil {
		if !p.admitted {
			p.admit()
		}
		p.note(&ev)
		return
	}
	p.note(&ev)
	for {
		if p.ctail-p.chead < ringSize {
			r.buf[p.ctail&ringMask] = ev
			p.ctail++
			if r.hungry.Load() {
				p.publish()
			} else if p.ctail&(publishEvery-1) == 0 {
				r.tail.Store(p.ctail)
			}
			return
		}
		p.chead = r.head.Load()
		if p.ctail-p.chead < ringSize {
			continue
		}
		p.publish() // let the members see everything before we park
		if p.w.aborted.Load() {
			panic(evAborted{})
		}
		r.mu.Lock()
		r.parked.Store(true)
		// Recheck under the lock: the consumer may have freed space (or
		// the world aborted) between the check above and the park, and its
		// parked-flag probe may have predated our store.
		if p.ctail-r.head.Load() < ringSize || p.w.aborted.Load() {
			r.parked.Store(false)
			r.mu.Unlock()
			continue
		}
		r.sleeping = true
		p.w.stall()
		r.cond.Wait()
		r.mu.Unlock()
		p.chead = r.head.Load()
	}
}

// publish makes every recorded event visible and rings the doorbell if a
// member is waiting at the tail. Called from the push fast path when a
// member is hungry, and from every producer blocking point — ring-full
// park, split rendezvous, program finish — so no event can remain
// invisible across a producer stall.
func (p *producer) publish() {
	r := p.ring
	if r == nil {
		return
	}
	r.tail.Store(p.ctail)
	if r.hungry.Load() && r.hungry.CompareAndSwap(true, false) {
		p.w.wakeClass(r.class)
	}
}

// pass moves a member's cursor from old to pos and hands each chunk it
// completes back to the producer once the class's last member has passed
// it. Chunks complete in order — every member passes chunk k-1 before
// chunk k — and at most numChunks are in flight, so one counter per chunk
// slot suffices. Consumer-side only.
func (r *ring) pass(old, pos uint64) {
	for end := (old>>chunkBits + 1) << chunkBits; end <= pos; end += chunkSize {
		k := (end>>chunkBits - 1) & (numChunks - 1)
		if r.passed[k]++; r.passed[k] == r.members {
			r.passed[k] = 0
			r.release(end)
		}
	}
}

// release publishes the freed prefix and wakes the producer if it is
// parked and at least half the ring is free (the hysteresis that makes
// each park/wake pay for half a ring of events). Consumer-side only.
func (r *ring) release(head uint64) {
	r.head.Store(head)
	if r.parked.Load() && r.tail.Load()-head <= ringSize-ringRefill {
		if r.parked.CompareAndSwap(true, false) {
			r.mu.Lock()
			if r.sleeping {
				r.sleeping = false
				r.w.stalled.Add(-1) // the waker uncounts, so the consumer never sees a stale stall
			}
			r.cond.Signal()
			r.mu.Unlock()
		}
	}
}

// admit blocks a follower until it holds one of the world's tokens (see
// Admission in the package doc). Every holder is running and hands its
// token on at its next Split or exit, so the wait ends even when the world
// has aborted; the follower then unwinds instead of recording.
func (p *producer) admit() {
	p.w.tokens <- struct{}{}
	p.admitted = true
	if p.w.aborted.Load() {
		panic(evAborted{})
	}
}

// yield hands a follower's token back: before a Split, where it may park,
// and when its program ends. A no-op for a representative.
func (p *producer) yield() {
	if p.admitted {
		p.admitted = false
		<-p.w.tokens
	}
}
