package simnet

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/blas"
	"repro/internal/comm"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
)

// This file implements the virtual transport: a full SPMD runtime whose
// ranks are goroutines — exactly like internal/mpi — but whose communicator
// advances Hockney virtual time on a shared Sim instead of moving matrix
// elements. The algorithm layer (internal/core) runs
// unchanged on it through the comm.Comm interface; wire buffers carry only
// element counts and Gemm advances a compute clock, so a 16384-rank
// BlueGene/P simulation allocates shape headers, not gigabytes of tiles.
//
// Timing semantics:
//
//   - Collectives execute their internal/sched schedule through Sim.ExecOne
//     at the moment the last member arrives, with full-duplex rendezvous
//     round semantics — bit-identical to the retired phase-replay engine
//     (the simulator's old hand-written schedules) under uniform links
//     and no contention, because disjoint collectives never couple there.
//     With contention enabled, the flow count each round sees is the
//     collective's own (concurrent collectives on disjoint ranks are not
//     round-aligned against each other) — a mild, documented deviation.
//
//   - SendRecv is full-duplex from the caller's clock snapshot: the call
//     completes at max(t₀+T_send, max(t₀, t_src)+T_recv), which reproduces
//     the shift-phase rendezvous of Cannon and Fox exactly. Both
//     directions charge the communicator's full flow count (every rank of
//     a shift moves at once), through Sim.TransferTime.
//
// Virtual times are deterministic regardless of goroutine interleaving:
// each rank's clock is advanced only by its own program order, messages
// carry their sender's clock, and a collective computes from the clocks of
// members that are all blocked in the same call.
//
// Synchronisation is sharded per communicator, not per world. A rank's
// clock, communication-time and traffic entries are owned by its goroutine
// (SendRecv and Gemm touch them with no lock at all); the one place
// another goroutine writes them — the last arriver of a collective
// executing the schedule for every member — holds that communicator's
// shard lock while the members are parked on the same lock's condition
// variable, which both guarantees exclusive access and publishes the
// writes. Disjoint collectives (e.g. the √p simultaneous row broadcasts of
// one SUMMA step, or the per-group broadcasts of HSUMMA) therefore advance
// concurrently instead of serialising on a world mutex — the property that
// lets a 16384-rank virtual run use the host's cores.
//
// Traffic accounting mirrors internal/mpi exactly — one message per
// schedule transfer, bytes from the same integer sched.SegmentRange split —
// so a virtual run reports per-rank message and byte counts identical to a
// live run of the same configuration (asserted by the parity tests in
// internal/engine).

// VConfig configures a virtual world.
type VConfig struct {
	// Model is the Hockney machine (α, β per element, γ per flop).
	Model machine.Model
	// Contention is the optional link-sharing model (nil = none, the
	// paper's assumption).
	Contention ContentionFunc
	// LinkCost optionally scales each transfer's bandwidth term by the
	// physical route (e.g. torus hop distance).
	LinkCost LinkCostFunc
	// Trace, when non-nil, records one span per operation per rank on the
	// virtual timeline — the same span stream the live transport emits, at
	// virtual timestamps. It observes clocks only and never alters them,
	// so traced and untraced runs are bit-identical.
	Trace *trace.Recorder
}

// VRankStats counts the traffic one virtual rank generated, mirroring
// mpi.RankStats.
type VRankStats struct {
	SentMessages int64
	SentBytes    int64 // payload bytes (8 per float64), as on the live wire
}

// VWorld owns the shared virtual clocks and coordination state for p ranks.
type VWorld struct {
	sim *Sim
	cfg VConfig

	// shardsMu guards the shard registry (needed only by abort).
	shardsMu sync.Mutex
	shards   []*vShard

	// panelsMu guards the registry of pooled panel headers handed out by
	// NewPanel; Run recycles them when the ranks are done.
	panelsMu sync.Mutex
	panels   []*comm.Panel

	nextCID   atomic.Int64
	stats     []VRankStats // per world rank, goroutine-owned (see file comment)
	mailboxes []*vMailbox
	aborted   atomic.Bool
}

// vShard is the coordination domain of one communicator: every VComm
// sharing a cid (i.e. all ranks of one communicator) shares one shard, and
// all collective/split rendezvous for that communicator run under its
// mutex. Distinct communicators — HSUMMA's per-group broadcasts, SUMMA's
// per-row broadcasts — have distinct shards and never contend.
type vShard struct {
	mu sync.Mutex
	// cond is shared by every rendezvous on the communicator: at most two
	// gathers are ever live at once (SPMD members run the same op
	// sequence, so a member can be at most one collective ahead of the
	// slowest waiter), so the spurious-wakeup cost of sharing is bounded
	// while the per-collective allocation disappears.
	cond   *sync.Cond
	colls  map[int64]*vCollGather  // keyed by the communicator's op sequence
	splits map[int64]*vSplitGather // keyed by the communicator's split sequence
	// free pools retired vCollGathers: a p=16384 run executes millions of
	// collectives, and on a single-core host their allocation is a
	// measurable slice of total wall time.
	free []*vCollGather
}

func (w *VWorld) newShard() *vShard {
	s := &vShard{
		colls:  make(map[int64]*vCollGather),
		splits: make(map[int64]*vSplitGather),
	}
	s.cond = sync.NewCond(&s.mu)
	w.shardsMu.Lock()
	w.shards = append(w.shards, s)
	w.shardsMu.Unlock()
	return s
}

// NewVWorld returns a virtual world of p ranks under the given
// configuration.
func NewVWorld(p int, cfg VConfig) *VWorld {
	sim := New(p, cfg.Model)
	sim.SetContention(cfg.Contention)
	sim.SetLinkCost(cfg.LinkCost)
	w := &VWorld{
		sim:       sim,
		cfg:       cfg,
		stats:     make([]VRankStats, p),
		mailboxes: make([]*vMailbox, p),
	}
	for i := range w.mailboxes {
		w.mailboxes[i] = newVMailbox()
	}
	return w
}

// Run executes fn on every rank, each in its own goroutine, passing each
// rank its world communicator. It returns after all ranks finish; the first
// panic aborts the world and is returned as an error.
func (w *VWorld) Run(fn func(c *VComm)) error {
	p := w.sim.Size()
	ranks := make([]int, p)
	for i := range ranks {
		ranks[i] = i
	}
	world := w.newShard() // cid 0, shared by every rank's world communicator
	var wg sync.WaitGroup
	var firstErr error
	var errOnce sync.Once
	for r := 0; r < p; r++ {
		vc := &VComm{w: w, shard: world, cid: 0, rank: r, ranks: ranks}
		wg.Add(1)
		go func(c *VComm) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(vAborted); ok {
						return // collateral unwind, not the root cause
					}
					errOnce.Do(func() {
						firstErr = fmt.Errorf("simnet: virtual rank %d panicked: %v\n%s", c.rank, rec, debug.Stack())
					})
					w.abort()
				}
			}()
			fn(c)
		}(vc)
	}
	wg.Wait()
	if firstErr == nil {
		// Only recycle on clean completion: after a panic some rank may
		// still reference its panels from the captured stack trace.
		w.recyclePanels()
	}
	return firstErr
}

// vAborted is the sentinel panic used to unwind ranks blocked in a receive
// or collective when another rank has already failed.
type vAborted struct{}

func (w *VWorld) abort() {
	if !w.aborted.CompareAndSwap(false, true) {
		return
	}
	// Snapshot the registry, then wake each shard's waiters under its own
	// lock (never holding shardsMu across a shard lock: shard creation
	// runs under a parent shard's mutex and takes shardsMu, so the
	// opposite order here would deadlock). A shard created after the flag
	// flipped needs no wakeup: its waiters check the flag, under the
	// shard mutex, before every Wait.
	w.shardsMu.Lock()
	shards := append([]*vShard(nil), w.shards...)
	w.shardsMu.Unlock()
	for _, s := range shards {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	// Broadcast under each mailbox's lock: a taker that has checked
	// the aborted flag but not yet parked in Wait would otherwise
	// miss the wakeup and sleep forever.
	for _, mb := range w.mailboxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
}

// Sim exposes the underlying simulator (clocks, per-rank comm times).
func (w *VWorld) Sim() *Sim { return w.sim }

// Stats returns a copy of the per-rank traffic counters. Read it only
// after Run returns.
func (w *VWorld) Stats() []VRankStats {
	out := make([]VRankStats, len(w.stats))
	copy(out, w.stats)
	return out
}

// Total returns the simulated execution time: the last rank clock.
func (w *VWorld) Total() float64 { return w.sim.MaxClock() }

// MaxCommTime returns the largest per-rank time spent inside communication,
// the quantity the paper plots as "communication time".
func (w *VWorld) MaxCommTime() float64 { return w.sim.MaxCommTime() }

// program returns the compiled broadcast — the only state shared across
// communicator shards on the hot path (Sim.Compile read-locks it).
func (w *VWorld) program(alg sched.Algorithm, p, root, elems int) *Program {
	pr, err := w.sim.Compile(alg, p, root, elems)
	if err != nil {
		panic(fmt.Sprintf("simnet: bcast: %v", err))
	}
	return pr
}

// vMessage is one in-flight virtual payload: no data, only its size and the
// sender's clock at the moment of the send.
type vMessage struct {
	cid   int64
	src   int // sender's rank in the communicator identified by cid
	tag   int
	elems int
	clock float64
}

type vMailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []vMessage
}

func newVMailbox() *vMailbox {
	mb := &vMailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *vMailbox) put(m vMessage) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

func (mb *vMailbox) take(w *VWorld, cid int64, src, tag int) vMessage {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for {
		for i, m := range mb.queue {
			if m.cid == cid && m.src == src && m.tag == tag {
				mb.queue = append(mb.queue[:i], mb.queue[i+1:]...)
				return m
			}
		}
		if w.aborted.Load() {
			panic(vAborted{})
		}
		mb.cond.Wait()
	}
}

// VComm is a communicator over the virtual world, implementing comm.Comm.
type VComm struct {
	w     *VWorld
	shard *vShard
	cid   int64
	rank  int
	ranks []int // comm rank -> world rank (shared, read-only)

	opSeq    int64
	splitSeq int64
}

var _ comm.Comm = (*VComm)(nil)

// Rank returns the caller's rank within the communicator.
func (c *VComm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *VComm) Size() int { return len(c.ranks) }

// WorldRank returns the caller's rank in the original world communicator.
func (c *VComm) WorldRank() int { return c.ranks[c.rank] }

// SendRecv performs the full-duplex shift primitive: both directions
// proceed concurrently from the caller's clock snapshot, and the call
// completes when the slower of the two finishes.
func (c *VComm) SendRecv(dst, sendTag int, send *comm.Panel, src, recvTag int, recv *comm.Panel) {
	sendN, recvN := send.Elems(), recv.Elems()
	c.checkPeer("send to", dst)
	c.checkPeer("recv from", src)
	w := c.w
	me := c.WorldRank()
	dstW := c.ranks[dst]
	t0 := w.sim.clocks[me]
	sendEnd := t0 + w.sim.TransferTime(me, dstW, sendN, len(c.ranks))
	w.stats[me].SentMessages++
	w.stats[me].SentBytes += int64(machine.BytesPerElement * sendN)
	w.mailboxes[dstW].put(vMessage{cid: c.cid, src: c.rank, tag: sendTag, elems: sendN, clock: t0})

	m := w.mailboxes[me].take(w, c.cid, src, recvTag)
	if m.elems != recvN {
		panic(fmt.Sprintf("simnet: sendrecv buffer %d elements but message has %d (src=%d tag=%d)",
			recvN, m.elems, src, recvTag))
	}
	recvEnd := t0
	if m.clock > recvEnd {
		recvEnd = m.clock
	}
	recvEnd += w.sim.TransferTime(c.ranks[src], me, m.elems, len(c.ranks))
	end := sendEnd
	if recvEnd > end {
		end = recvEnd
	}
	w.sim.AdvanceComm(me, end)
	if rec := w.cfg.Trace; rec != nil {
		rec.Rank(me, trace.PhaseShift, t0, end-t0, int64(machine.BytesPerElement*(sendN+recvN)), 2)
	}
}

func (c *VComm) checkPeer(verb string, peer int) {
	if peer < 0 || peer >= len(c.ranks) {
		panic(fmt.Sprintf("simnet: %s rank %d outside communicator of %d", verb, peer, len(c.ranks)))
	}
	if peer == c.rank {
		panic("simnet: self-send is not supported (use local copies)")
	}
}

// vCollGather coordinates one collective call across the members of a
// communicator: everyone blocks until the last member arrives, which
// executes the schedule on the shared clocks and releases the rest. The
// first arriver's call signature is recorded so a mismatched member — the
// bug class the live transport catches with a receive-size panic — aborts
// loudly instead of silently skewing the figures.
type vCollGather struct {
	arrived  int
	released int // waiters that have observed done and left
	done     bool

	alg   sched.Algorithm
	root  int
	elems int
}

// Bcast broadcasts root's virtual payload over the communicator: the
// schedule's transfers advance the members' clocks through Sim.ExecOne with
// exact round rendezvous semantics, and the traffic counters record one
// message per transfer with the same integer segment split the live runtime
// puts on the wire. The rendezvous runs under the communicator's shard
// lock, so disjoint collectives proceed in parallel.
func (c *VComm) Bcast(alg sched.Algorithm, root int, panel *comm.Panel) {
	elems := panel.Elems()
	p := c.Size()
	if root < 0 || root >= p {
		panic(fmt.Sprintf("simnet: bcast root %d outside communicator of %d", root, p))
	}
	if p == 1 {
		return
	}
	w := c.w
	seq := c.opSeq
	c.opSeq++
	shard := c.shard

	// Deferred unlock so a panic inside the critical section (an unknown
	// broadcast algorithm, a schedule/member mismatch) releases the shard
	// mutex before Run's recover handler calls abort — which needs it.
	shard.mu.Lock()
	defer shard.mu.Unlock()
	cg := shard.colls[seq]
	if cg == nil {
		if n := len(shard.free); n > 0 {
			cg = shard.free[n-1]
			shard.free = shard.free[:n-1]
			*cg = vCollGather{alg: alg, root: root, elems: elems}
		} else {
			cg = &vCollGather{alg: alg, root: root, elems: elems}
		}
		shard.colls[seq] = cg
	} else if cg.alg != alg || cg.root != root || cg.elems != elems {
		panic(fmt.Sprintf("simnet: bcast mismatch on rank %d: (%s root=%d n=%d) vs first caller's (%s root=%d n=%d)",
			c.rank, alg, root, elems, cg.alg, cg.root, cg.elems))
	}
	cg.arrived++
	if cg.arrived == p {
		pr := w.program(alg, p, root, elems)
		// The executing member owns every member's clock here (they are
		// parked on this shard's condition variable), so it may snapshot
		// pre-clocks and emit the members' broadcast spans.
		var pre []float64
		if rec := w.cfg.Trace; rec != nil {
			pre = make([]float64, p)
			for i, m := range c.ranks {
				pre[i] = w.sim.clocks[m]
			}
		}
		w.sim.ExecOne(pr, c.ranks)
		for i, d := range pr.Traffic {
			st := &w.stats[c.ranks[i]]
			st.SentMessages += d.SentMessages
			st.SentBytes += d.SentBytes
			if rec := w.cfg.Trace; rec != nil {
				m := c.ranks[i]
				rec.Rank(m, trace.PhaseBcast, pre[i], w.sim.clocks[m]-pre[i],
					int64(machine.BytesPerElement*elems), d.SentMessages)
			}
		}
		cg.done = true
		shard.cond.Broadcast()
		delete(shard.colls, seq) // waiters hold the pointer
		return
	}
	// Every non-executing member waits at least once (done can only flip
	// while no member holds the shard lock between its arrival increment
	// and this loop), so the last of the p−1 waiters to leave retires the
	// gather to the pool.
	for !cg.done {
		if w.aborted.Load() {
			panic(vAborted{})
		}
		shard.cond.Wait()
	}
	cg.released++
	if cg.released == p-1 {
		shard.free = append(shard.free, cg)
	}
}

// vSplitGather coordinates one Split call, mirroring the live runtime.
type vSplitGather struct {
	arrived int
	colors  []int // comm rank -> color
	keys    []int // comm rank -> key
	done    bool
	result  []*VComm // comm rank -> new communicator (nil for undefined color)
}

// Split partitions the communicator exactly like MPI_Comm_split (and like
// the live transport): ranks passing the same colour form a new
// communicator ordered by (key, old rank); a negative colour returns nil.
// Each resulting communicator gets its own coordination shard.
func (c *VComm) Split(color, key int) comm.Comm {
	w := c.w
	seq := c.splitSeq
	c.splitSeq++
	shard := c.shard

	shard.mu.Lock()
	defer shard.mu.Unlock()
	sg := shard.splits[seq]
	if sg == nil {
		sg = &vSplitGather{
			colors: make([]int, len(c.ranks)),
			keys:   make([]int, len(c.ranks)),
		}
		shard.splits[seq] = sg
	}
	sg.colors[c.rank] = color
	sg.keys[c.rank] = key
	sg.arrived++
	if sg.arrived == len(c.ranks) {
		sg.result = c.computeSplit(sg)
		sg.done = true
		shard.cond.Broadcast()
		delete(shard.splits, seq)
	}
	for !sg.done {
		if w.aborted.Load() {
			panic(vAborted{})
		}
		shard.cond.Wait()
	}
	res := sg.result[c.rank]
	if res == nil {
		return nil
	}
	return res
}

// computeSplit builds the new communicators once all members have arrived.
// Called with the parent communicator's shard mutex held by the last
// arriver; each colour's communicator gets a fresh cid and shard. The
// grouping rule lives in comm.SplitGroups, shared by every transport.
func (c *VComm) computeSplit(sg *vSplitGather) []*VComm {
	result := make([]*VComm, len(sg.colors)) // undefined-colour ranks stay nil
	for _, members := range comm.SplitGroups(sg.colors, sg.keys) {
		cid := c.w.nextCID.Add(1)
		shard := c.w.newShard()
		worldRanks := make([]int, len(members))
		for i, m := range members {
			worldRanks[i] = c.ranks[m]
		}
		for i, m := range members {
			result[m] = &VComm{w: c.w, shard: shard, cid: cid, rank: i, ranks: worldRanks}
		}
	}
	return result
}

// --- Data plane: storage is elided, only shapes and clocks advance. ---

// panelPool recycles the shape-only headers the virtual data plane hands
// out. A single virtual run allocates a handful per rank, but the tune
// planner's refinement stage executes thousands of virtual runs per cold
// plan; recycling the headers across runs keeps that loop from churning
// the GC (allocs/op is tracked by BenchmarkFullScaleBGPSim).
var panelPool = sync.Pool{New: func() any { return new(comm.Panel) }}

// NewPanel takes a shape-only panel from the pool and registers it with
// the world so Run can recycle it once the ranks are done. Safe because
// the algorithm layer never retains panels beyond its own execution —
// they are scratch by construction. panelsMu is setup-phase only: the
// algorithms allocate their panels before the step loop, so the registry
// never contends with the communication hot path.
func (c *VComm) NewPanel(rows, cols int, role comm.Role) *comm.Panel {
	w := c.w
	p := panelPool.Get().(*comm.Panel)
	*p = comm.Header(rows, cols, role)
	w.panelsMu.Lock()
	w.panels = append(w.panels, p)
	w.panelsMu.Unlock()
	return p
}

// recyclePanels returns every handed-out header to the pool; called by Run
// after all rank goroutines have finished.
func (w *VWorld) recyclePanels() {
	w.panelsMu.Lock()
	panels := w.panels
	w.panels = nil
	w.panelsMu.Unlock()
	for _, p := range panels {
		panelPool.Put(p)
	}
}

// NewTile returns a shape-only matrix header (nil Data).
func (c *VComm) NewTile(rows, cols int) *matrix.Dense {
	return &matrix.Dense{Rows: rows, Cols: cols, Stride: cols}
}

// Pack checks shapes; no elements move.
func (c *VComm) Pack(dst *comm.Panel, src *matrix.Dense) { comm.CheckPack(dst, src) }

// Repack checks the window; no elements move.
func (c *VComm) Repack(dst, src *comm.Panel, off int) { comm.CheckRepack(dst, src, off) }

// Gemm advances the rank's compute state by the local update's flop count
// — blas.FlopsGemm(m,n,k) = 2·m·n·k — divided by the intra-rank
// parallel-efficiency curve machine.Speedup(threads), the virtual model of
// the live transport's row-band workers (Speedup(1) is exactly 1, so the
// division is bitwise neutral for serial ranks and the engines' parity
// invariant holds unchanged) — on the rank's one clock, as the paper's
// non-overlapped implementation spends it. Like SendRecv it touches only
// caller-owned state and takes no lock.
func (c *VComm) Gemm(cm *matrix.Dense, a, b *comm.Panel, threads int) {
	comm.CheckGemm(cm, a, b)
	flops := blas.FlopsGemm(a.Tile.Rows, b.Tile.Cols, a.Tile.Cols) / machine.Speedup(threads)
	w := c.w
	me := c.WorldRank()
	pre := w.sim.clocks[me]
	w.sim.ComputeRank(me, flops)
	if rec := w.cfg.Trace; rec != nil {
		rec.RankThreads(me, trace.PhaseGemm, pre, w.sim.clocks[me]-pre, threads)
	}
}
