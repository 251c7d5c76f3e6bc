package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"genie/internal/runtime"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// Span kinds recorded by the benchmark's wrappers. No span is recorded
// inside the program: every one is taken around a call into a layer's
// public surface.
const (
	kindPrefill  = iota // runtime.Strategy.Prefill
	kindStep            // runtime.Strategy.Step
	kindClose           // runtime.Strategy.Close
	kindExec            // runtime.Endpoint Exec / ExecCtx
	kindOtherRPC        // Upload, Fetch, Free, Stats, PingCtx
)

// span is one timed call. Parent is the enclosing span's id (0 for a
// strategy call, whose parent is the request itself); Req is the
// benchmark's request id (0 when the call belongs to no request, such
// as a health probe).
type span struct {
	ID, Parent, Req int64
	Kind            int8
	Lane, Backend   int16
	Start, End      int64 // Unix ns
}

type reqKey struct{}

// withReq tags a request context with the benchmark's request id; the
// serving engine hands the same context to NewStrategy.
func withReq(ctx context.Context, id int64) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

func reqOf(ctx context.Context) int64 {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(reqKey{}).(int64)
	return id
}

// tracer collects the wrappers' spans while recording is on.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	lanes  []*laneTrace
}

func (t *tracer) record(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns and clears the recorded spans.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

func (t *tracer) newLane() *laneTrace {
	l := &laneTrace{t: t, id: int16(len(t.lanes)), stepped: map[*tracedStrategy]bool{}}
	t.lanes = append(t.lanes, l)
	return l
}

// laneTrace is one serving lane's view: the strategy call in progress
// (endpoint calls parent under it) and continuous-batching iterations,
// detected as the first Step of a session already stepped since the
// last boundary. A lane runs its calls from one goroutine, so calls on
// it never overlap.
type laneTrace struct {
	t       *tracer
	id      int16
	cur     atomic.Int64
	curReq  atomic.Int64
	mu      sync.Mutex
	stepped map[*tracedStrategy]bool
	iters   []int
}

func (l *laneTrace) noteStep(s *tracedStrategy) {
	l.mu.Lock()
	if l.stepped[s] {
		if l.t.on.Load() {
			l.iters = append(l.iters, len(l.stepped))
		}
		clear(l.stepped)
	}
	l.stepped[s] = true
	l.mu.Unlock()
}

func (l *laneTrace) forget(s *tracedStrategy) {
	l.mu.Lock()
	delete(l.stepped, s)
	l.mu.Unlock()
}

// takeIters returns and clears the recorded iteration sizes.
func (l *laneTrace) takeIters() []int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.iters
	l.iters = nil
	return out
}

// traceRunner wraps r's strategy factory so every session's Prefill,
// Step and Close is timed on lane l.
func traceRunner(r *runtime.LLMRunner, l *laneTrace) *runtime.LLMRunner {
	inner := r.NewStrategy
	r.NewStrategy = func(ctx context.Context, mode runtime.Mode, scope string) (runtime.Strategy, error) {
		s, err := inner(ctx, mode, scope)
		if err != nil {
			return nil, err
		}
		ts := &tracedStrategy{inner: s, lane: l, req: reqOf(ctx)}
		// Forward the optional surface only when the inner strategy
		// has it, so the runtime sees exactly what it would unwrapped.
		if rk, ok := s.(runtime.ResidentKeyser); ok {
			return &keyedStrategy{tracedStrategy: ts, rk: rk}, nil
		}
		return ts, nil
	}
	return r
}

type tracedStrategy struct {
	inner runtime.Strategy
	lane  *laneTrace
	req   int64
}

func (s *tracedStrategy) call(kind int8, fn func()) {
	t := s.lane.t
	id := t.nextID.Add(1)
	s.lane.cur.Store(id)
	s.lane.curReq.Store(s.req)
	start := time.Now().UnixNano()
	fn()
	end := time.Now().UnixNano()
	s.lane.cur.Store(0)
	s.lane.curReq.Store(0)
	t.record(span{ID: id, Req: s.req, Kind: kind, Lane: s.lane.id, Backend: -1, Start: start, End: end})
}

func (s *tracedStrategy) Prefill(ctx context.Context, prompt []int64) (tok int64, err error) {
	s.call(kindPrefill, func() { tok, err = s.inner.Prefill(ctx, prompt) })
	return tok, err
}

func (s *tracedStrategy) Step(ctx context.Context, in int64) (tok int64, err error) {
	s.lane.noteStep(s)
	s.call(kindStep, func() { tok, err = s.inner.Step(ctx, in) })
	return tok, err
}

func (s *tracedStrategy) Close() (err error) {
	s.lane.forget(s)
	s.call(kindClose, func() { err = s.inner.Close() })
	return err
}

type keyedStrategy struct {
	*tracedStrategy
	rk runtime.ResidentKeyser
}

func (s *keyedStrategy) ResidentKeys() []string { return s.rk.ResidentKeys() }

// tracedEndpoint times every call into one backend's client. It
// forwards the optional ExecCtx and PingCtx surfaces the runtime, the
// split runner and the serving lanes probe for.
type tracedEndpoint struct {
	c       *transport.Client
	lane    *laneTrace
	backend int16
}

func (e *tracedEndpoint) rec(kind int8, start int64) {
	e.lane.t.record(span{
		ID: e.lane.t.nextID.Add(1), Parent: e.lane.cur.Load(), Req: e.lane.curReq.Load(),
		Kind: kind, Lane: e.lane.id, Backend: e.backend, Start: start, End: time.Now().UnixNano(),
	})
}

func (e *tracedEndpoint) Upload(key string, data *tensor.Tensor) (*transport.UploadOK, error) {
	defer e.rec(kindOtherRPC, time.Now().UnixNano())
	return e.c.Upload(key, data)
}

func (e *tracedEndpoint) Exec(x *transport.Exec) (*transport.ExecOK, error) {
	defer e.rec(kindExec, time.Now().UnixNano())
	return e.c.Exec(x)
}

func (e *tracedEndpoint) ExecCtx(ctx context.Context, x *transport.Exec) (*transport.ExecOK, error) {
	defer e.rec(kindExec, time.Now().UnixNano())
	return e.c.ExecCtx(ctx, x)
}

func (e *tracedEndpoint) Fetch(key string, epoch uint32) (*tensor.Tensor, error) {
	defer e.rec(kindOtherRPC, time.Now().UnixNano())
	return e.c.Fetch(key, epoch)
}

func (e *tracedEndpoint) Free(key string) error {
	defer e.rec(kindOtherRPC, time.Now().UnixNano())
	return e.c.Free(key)
}

func (e *tracedEndpoint) Stats() (*transport.Stats, error) {
	defer e.rec(kindOtherRPC, time.Now().UnixNano())
	return e.c.Stats()
}

func (e *tracedEndpoint) PingCtx(ctx context.Context) (time.Duration, error) {
	defer e.rec(kindOtherRPC, time.Now().UnixNano())
	return e.c.PingCtx(ctx)
}
