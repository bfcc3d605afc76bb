// Package trace is the span model behind -trace and /debug/traces: a
// low-overhead, off-by-default recorder of per-rank phase timelines.
//
// The live mpi transport and both virtual engines emit one Span per
// communication or compute operation (broadcast, SendRecv shift,
// point-to-point, Gemm), and the host side adds scatter/gather spans
// around data distribution. A Recorder holds one span buffer per rank;
// each buffer is only ever appended to by the goroutine that owns that
// rank's clock (the rank goroutine on the live path and the goroutine
// engine, the single replay loop on the event engine, the last arriver
// of a collective for its members), so recording takes no locks.
//
// When tracing is disabled every instrumented site sees a nil *Recorder
// and skips span construction entirely; the only always-on cost is the
// per-phase float accumulation in the transports' rank stats.
//
// Timelines export as Chrome trace-event JSON ("X" complete events),
// loadable by Perfetto (ui.perfetto.dev) or chrome://tracing. Span
// times are seconds — wall-clock seconds since the recorder's epoch on
// the live path, virtual seconds on the simulators — scaled to
// microseconds on export.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// Phase classifies a span. The transports assign phases by operation
// kind, so the algorithms themselves need no annotations: every Bcast
// is a broadcast round, every SendRecv a shift, every Gemm compute.
type Phase uint8

const (
	PhaseScatter Phase = iota // host-side operand distribution
	PhaseBcast                // one broadcast call (row/col/group round)
	PhaseShift                // a SendRecv exchange (Cannon/Fox shifts)
	PhaseP2P                  // bare Send/Recv and misc collectives
	PhaseGemm                 // local multiply
	PhaseGather               // host-side result collection
	NumPhases
)

var phaseNames = [NumPhases]string{"scatter", "bcast", "shift", "p2p", "gemm", "gather"}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase" + strconv.Itoa(int(p))
}

// CommPhaseMap converts a per-phase seconds array (as accumulated by
// the transports) into the map form surfaced in Stats, keeping only
// phases with nonzero time.
func CommPhaseMap(sec [NumPhases]float64) map[string]float64 {
	m := make(map[string]float64, 3)
	for p, s := range sec {
		if s > 0 {
			m[Phase(p).String()] = s
		}
	}
	return m
}

// Span is one timed interval on one rank's timeline. Start and Dur are
// seconds on the run's timeline (wall or virtual). Rank -1 is the host
// timeline (scatter/gather around the distributed run).
type Span struct {
	Rank    int
	Phase   Phase
	Start   float64
	Dur     float64
	Bytes   int64 // payload bytes this rank moved in the operation
	Msgs    int64 // messages this rank sent in the operation
	Threads int   // Gemm spans: intra-rank thread count
}

// HostRank is the pseudo-rank for host-side scatter/gather spans.
const HostRank = -1

// Recorder collects spans for one run. Create one per traced run with
// New(ranks); a nil *Recorder is the disabled state and must not be
// passed to Rank/Host.
type Recorder struct {
	epoch time.Time
	ranks [][]Span
	host  []Span
}

// New returns a Recorder for a run on the given number of ranks, with
// its live epoch set to now.
func New(ranks int) *Recorder {
	return &Recorder{epoch: time.Now(), ranks: make([][]Span, ranks)}
}

// Epoch is the recorder's wall-clock zero for live spans.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// Since converts a wall-clock instant to seconds on the live timeline.
func (r *Recorder) Since(t time.Time) float64 { return t.Sub(r.epoch).Seconds() }

// Rank appends a span to one rank's timeline. Only the goroutine that
// owns the rank's clock may call it; it takes no locks.
func (r *Recorder) Rank(rank int, ph Phase, start, dur float64, bytes, msgs int64) {
	r.ranks[rank] = append(r.ranks[rank], Span{Rank: rank, Phase: ph, Start: start, Dur: dur, Bytes: bytes, Msgs: msgs})
}

// RankThreads is Rank with the Gemm thread count attached.
func (r *Recorder) RankThreads(rank int, ph Phase, start, dur float64, threads int) {
	r.ranks[rank] = append(r.ranks[rank], Span{Rank: rank, Phase: ph, Start: start, Dur: dur, Threads: threads})
}

// Host appends a span to the host timeline (single-goroutine use).
func (r *Recorder) Host(ph Phase, start, dur float64, bytes, msgs int64) {
	r.host = append(r.host, Span{Rank: HostRank, Phase: ph, Start: start, Dur: dur, Bytes: bytes, Msgs: msgs})
}

// Ranks is the number of rank timelines.
func (r *Recorder) Ranks() int { return len(r.ranks) }

// Spans returns every recorded span, host first, then ranks in order,
// each timeline in emission order.
func (r *Recorder) Spans() []Span {
	n := len(r.host)
	for _, rs := range r.ranks {
		n += len(rs)
	}
	out := make([]Span, 0, n)
	out = append(out, r.host...)
	for _, rs := range r.ranks {
		out = append(out, rs...)
	}
	return out
}

// CountKey identifies one (rank, phase) bucket in span counts.
type CountKey struct {
	Rank  int
	Phase Phase
}

// Counts returns the number of spans per (rank, phase), the quantity
// the live-vs-sim parity tests compare.
func (r *Recorder) Counts() map[CountKey]int {
	m := make(map[CountKey]int)
	for _, s := range r.Spans() {
		m[CountKey{s.Rank, s.Phase}]++
	}
	return m
}

// WriteJSON writes the timeline as Chrome trace-event JSON (the
// {"traceEvents": [...]} object form) for Perfetto / chrome://tracing.
// All spans land in one process (pid 0) with one thread per rank; the
// host timeline is thread -1, named "host".
func (r *Recorder) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(s string) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		bw.WriteString(s)
	}
	// Thread-name metadata so Perfetto labels the timelines.
	tids := make([]int, 0, len(r.ranks)+1)
	if len(r.host) > 0 {
		tids = append(tids, HostRank)
	}
	for i := range r.ranks {
		tids = append(tids, i)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		name := "rank " + strconv.Itoa(tid)
		if tid == HostRank {
			name = "host"
		}
		emit(fmt.Sprintf(`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%q}}`, tid, name))
	}
	for _, s := range r.Spans() {
		// Seconds -> microseconds, the trace-event time unit.
		line := fmt.Sprintf(`{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d,"args":{"bytes":%d,"msgs":%d,"threads":%d}}`,
			s.Phase.String(), s.Start*1e6, s.Dur*1e6, s.Rank, s.Bytes, s.Msgs, s.Threads)
		emit(line)
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
