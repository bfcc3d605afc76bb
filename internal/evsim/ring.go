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
//
// The fields are packed into three words: a struct of at most four
// fields lives in registers, so recording an event is three stores into
// its slot, where one of seven fields is built on the stack and copied
// out with wide loads of narrow stores, which stall store forwarding.
// The words are also the stream hash's three lanes.
type event struct {
	ab   uint64 // a | b<<32
	cd   uint64 // c | d<<32
	meta uint64 // slot | kind<<32 | alg<<40 (alg: broadcast algorithm code, evBcast only)
}

func mkEvent(kind, alg uint8, slot, a, b, c, d int32) event {
	return event{
		ab:   uint64(uint32(a)) | uint64(uint32(b))<<32,
		cd:   uint64(uint32(c)) | uint64(uint32(d))<<32,
		meta: uint64(uint32(slot)) | uint64(kind)<<32 | uint64(alg)<<40,
	}
}

func (e *event) a() int32    { return int32(e.ab) }
func (e *event) b() int32    { return int32(e.ab >> 32) }
func (e *event) c() int32    { return int32(e.cd) }
func (e *event) d() int32    { return int32(e.cd >> 32) }
func (e *event) slot() int32 { return int32(e.meta) }
func (e *event) kind() uint8 { return uint8(e.meta >> 32) }
func (e *event) alg() uint8  { return uint8(e.meta >> 40) }

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
	// slots is the class's slot table, slot-major: slots[s*members+col]
	// is the id of the communicator the member in column col obtained
	// s-th, or -1 while the consumer has not seen it (see World.resolve).
	slots []int32
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

// hashPrime is the 64-bit FNV prime; see hash.
const hashPrime = 1099511628211

// hash folds events into the producer's running stream hash and count:
// one lane per word of an event, so the three multiply chains run
// side by side, kept in registers across the batch. Each step is a
// bijection of its lane for a given word, so two equally long streams
// differing anywhere end with different hashes unless later differences
// cancel exactly. Where a stream is cut into batches does not change the
// result.
func (p *producer) hash(evs []event) {
	s0, s1, s2 := p.sum[0], p.sum[1], p.sum[2]
	for i := range evs {
		ev := &evs[i]
		s0 = bits.RotateLeft64((s0^ev.ab)*hashPrime, 27)
		s1 = bits.RotateLeft64((s1^ev.cd)*hashPrime, 27)
		s2 = bits.RotateLeft64((s2^ev.meta)*hashPrime, 27)
	}
	p.sum = [3]uint64{s0, s1, s2}
	p.events += int64(len(evs))
}

// foldBatch is how many events a follower buffers before hashing them:
// the per-event cost of the check is then one 24-byte store, and the hash
// lanes stay in registers for the whole batch.
const foldBatch = 128

// foldBuf is a follower's batch of events not hashed yet. A follower
// holds one exactly while it holds a token, so there are at most as many
// as tokens; they are pooled across followers and runs.
type foldBuf struct {
	evs [foldBatch]event
	n   int
}

var foldPool = sync.Pool{New: func() any { return new(foldBuf) }}

// push records one event. A follower takes a token (and a fold batch)
// before it records and then only buffers the event for its stream hash;
// the representative appends it to the class ring and hashes it there,
// parking when the ring is full until the class's slowest member frees
// half the ring or the world aborts. The producer caches the ring's head
// (chead) and owns its tail (ctail), so the fast path is one plain store
// plus a flag probe.
func (p *producer) push(ev event) {
	r := p.ring
	if r == nil {
		f := p.fold
		if f == nil {
			p.admit()
			f = p.fold
		}
		f.evs[f.n] = ev
		if f.n++; f.n == foldBatch {
			p.hash(f.evs[:])
			f.n = 0
		}
		return
	}
	for {
		if p.ctail-p.chead < ringSize {
			i := p.ctail & ringMask
			r.buf[i] = ev
			p.hash(r.buf[i : i+1])
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
// park, split wait, program finish — so no event can remain invisible
// across a producer stall.
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

// admission is the followers' token pool (see Admission in the package
// doc): free tokens and the followers waiting for one, in arrival order,
// linked through producer.next. A token is handed to a waiter directly and
// the waiter woken by itself, so it wakes holding the token. A follower
// that waits for a Split joins the queue when the Split completes (see
// completeSplit): it wakes once, able to record, instead of waking to
// queue for a token.
type admission struct {
	mu         sync.Mutex
	free       int
	head, tail *producer
}

// acquire blocks until p holds a token.
func (a *admission) acquire(p *producer) {
	a.mu.Lock()
	if a.free > 0 {
		a.free--
		a.mu.Unlock()
		return
	}
	a.push(p)
	a.mu.Unlock()
	p.sleep()
}

// enqueue queues followers released from a Split (a list linked through
// next), handing free tokens to the first of them.
func (a *admission) enqueue(list *producer) {
	var woken *producer
	a.mu.Lock()
	for list != nil {
		q := list
		list = q.next
		a.push(q)
	}
	for ; a.free > 0 && a.head != nil; a.free-- {
		q := a.pop()
		q.next, woken = woken, q
	}
	a.mu.Unlock()
	for woken != nil {
		q := woken
		woken, q.next = q.next, nil
		q.wake()
	}
}

// release hands a token to the longest waiter, or back to the pool.
func (a *admission) release() {
	a.mu.Lock()
	if a.head == nil {
		a.free++
		a.mu.Unlock()
		return
	}
	q := a.pop()
	a.mu.Unlock()
	q.wake()
}

func (a *admission) push(p *producer) {
	p.next = nil
	if a.tail == nil {
		a.head = p
	} else {
		a.tail.next = p
	}
	a.tail = p
}

func (a *admission) pop() *producer {
	p := a.head
	if a.head = p.next; a.head == nil {
		a.tail = nil
	}
	p.next = nil
	return p
}

// sleep parks a follower until wake, which its waker calls after making a
// token the follower's.
func (p *producer) sleep() {
	p.mu.Lock()
	for !p.woken {
		p.wakeup.Wait()
	}
	p.woken = false
	p.mu.Unlock()
}

func (p *producer) wake() {
	p.mu.Lock()
	p.woken = true
	p.mu.Unlock()
	p.wakeup.Signal()
}

// admit blocks a follower until it holds one of the world's tokens (see
// Admission in the package doc) and gives it a fold batch. Every holder
// is running and hands its token on before it next parks or at its exit,
// so the wait ends even when the world has aborted; the follower then
// unwinds instead of recording.
func (p *producer) admit() {
	p.w.tokens.acquire(p)
	p.admitted()
}

// admitted takes a fold batch for a follower that now holds a token, and
// unwinds it if the world has aborted.
func (p *producer) admitted() {
	p.fold = foldPool.Get().(*foldBuf)
	if p.w.aborted.Load() {
		panic(evAborted{})
	}
}

// yield hashes a follower's buffered events and hands its token back:
// before a split wait, where it may park, and when its program ends. A
// no-op for a representative and for a follower holding no token.
func (p *producer) yield() {
	if f := p.fold; f != nil {
		p.hash(f.evs[:f.n])
		f.n = 0
		foldPool.Put(f)
		p.fold = nil
		p.w.tokens.release()
	}
}
