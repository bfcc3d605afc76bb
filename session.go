package hsumma

import (
	"fmt"

	"repro/internal/serve"
)

// This file is the library face of the serving subsystem (internal/serve):
// a Session keeps what a stream of products of one shape shares — the
// resolved spec, a work queue that coalesces same-A requests, and the
// scratch padded operands are staged through — so the plan is resolved a
// single time instead of per call. The ranks are not kept: every product
// runs on rank goroutines spawned for it, as the one-shot Multiply's do. The
// same machinery, fronted by a shape-keyed scheduler and an HTTP daemon, is
// cmd/hsumma-serve.

// Serving errors, reported via errors.Is.
var (
	// ErrSessionClosed is returned by Session.Multiply after Close (queued
	// requests receive it during the graceful drain; the in-flight one
	// finishes normally).
	ErrSessionClosed = serve.ErrClosed
	// ErrOverloaded reports serving-layer backpressure (bounded queues /
	// core budget); the library Session blocks instead of rejecting, so it
	// surfaces only through the daemon.
	ErrOverloaded = serve.ErrOverloaded
)

// Session is a persistent execution context for one problem shape and
// configuration. Create it once with NewSession, call Multiply for each
// product, Close when done. Concurrent Multiply calls are safe and are
// serialised by the session's work queue.
type Session struct {
	inner *serve.Session
	shape Shape
}

// NewSession resolves the configuration exactly as Multiply would —
// including AlgAuto planner resolution and the shared block-size default —
// then starts the session's queue for the given problem shape:
// A (M×K) · B (K×N) = C (M×N). Every Session.Multiply must pass operands of
// exactly this shape; start one session per distinct shape (or
// use cmd/hsumma-serve, whose scheduler pools sessions by shape
// automatically).
func NewSession(shape Shape, cfg Config) (*Session, error) {
	spec, _, err := resolveSpec(shape, cfg)
	if err != nil {
		return nil, err
	}
	inner, err := serve.NewSession(shape, spec, serve.SessionConfig{})
	if err != nil {
		return nil, err
	}
	return &Session{inner: inner, shape: shape}, nil
}

// Shape returns the problem shape the session serves.
func (s *Session) Shape() Shape { return s.shape }

// Key returns the session's canonical execution-shape key — the identity
// the serving scheduler routes requests by.
func (s *Session) Key() string { return s.inner.Key() }

// Calls returns the number of multiplications completed on the session.
func (s *Session) Calls() int64 { return s.inner.Calls() }

// Multiply computes A·B on the session. The operands must match
// the session shape exactly; the result and the traffic statistics are
// identical to what the one-shot Multiply reports for the same
// configuration (bit-identical products — both run the same spec on the
// same runtime through the same staging rule), but Stats.SetupSeconds
// carries only the per-request staging cost, the rest having been paid once
// at NewSession. The ranks read a and b in place: leave both untouched until
// Multiply returns.
func (s *Session) Multiply(a, b *Matrix) (*Matrix, Stats, error) {
	out, st, err := s.inner.Multiply(a, b)
	return out, st.RunStats, err
}

// Close releases the session: the in-flight request finishes, queued ones
// fail with ErrSessionClosed, and Close returns once the session's runner
// goroutine, if one is running, has exited. It is idempotent.
func (s *Session) Close() error { return s.inner.Close() }

// String identifies the session for logs.
func (s *Session) String() string {
	return fmt.Sprintf("hsumma.Session(%v, %s)", s.shape, s.inner.Key())
}
