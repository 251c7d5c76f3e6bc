package main

import (
	"fmt"
	goruntime "runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"genie/internal/kvcache"
	"genie/internal/models"
	"genie/internal/pool"
	"genie/internal/runtime"
	"genie/internal/serve"
	"genie/internal/transport"
)

// snapshot is every counter the benchmark reads from the stack's public
// surfaces (Stats, Snapshot, Status, Telemetry, Counters) at one
// instant, plus the gateway process's memory statistics.
type snapshot struct {
	at     int64
	calls  [transport.MsgStatsOK + 1]int64
	sent   [transport.MsgStatsOK + 1]int64
	recv   [transport.MsgStatsOK + 1]int64
	engine serve.Stats
	cache  kvcache.Stats
	delta  int64
	pool   pool.Status
	mem    goruntime.MemStats
}

func takeSnapshot(st *stack) *snapshot {
	s := &snapshot{engine: st.engine.Stats()}
	for k := transport.MsgPing; k <= transport.MsgStatsOK; k++ {
		s.calls[k] = st.tel.Calls(k)
		s.sent[k] = st.tel.SentBytes(k)
		s.recv[k] = st.tel.RecvBytes(k)
	}
	if st.cache != nil {
		s.cache = st.cache.Snapshot()
	}
	if st.split != nil {
		s.delta = st.split.DeltaBytes()
	}
	if st.pool != nil {
		s.pool = st.pool.Status()
	}
	goruntime.ReadMemStats(&s.mem)
	s.at = time.Now().UnixNano()
	return s
}

func (s *snapshot) totalCalls() int64 {
	var n int64
	for _, c := range s.calls {
		n += c
	}
	return n
}

// The load shape. An untimed warm-up fills the cache and forms the
// health baselines; the measured seconds then split into rounds, each
// an open segment taking openShare of the round and a closed segment.
// The warm-up outlasts one quarantine cooldown plus reinstatement, so a
// lane quarantined while its baselines form is serving again before
// the measured rounds begin.
const (
	warmup       = 4 * time.Second
	roundsPerRun = 8
	openShare    = 0.75
)

// phaseRun is what one deployment's phases produced.
type phaseRun struct {
	lg            *loadgen
	late          []int64
	windows       [][2]int64 // closed-phase windows [start, end)
	roundNet      []int64    // socket bytes on backend connections per round
	before, after *snapshot
	gatewayRSSKB  int64
	reports       []*backendReport
	spans         []span
	iters         []int
}

// replay runs the untimed warm-up, then the measured rounds: each an
// open segment (when withOpen) followed by a closed segment, so both
// phases sample the whole run's span of machine conditions.
// afterRound, when set, runs after each round outside the measured
// windows. On a traced stack the wrappers record only while the
// measured rounds run.
func replay(w *workload, o options, st *stack, withOpen bool, afterRound func() error) (pr *phaseRun, err error) {
	round := time.Duration(o.seconds * float64(time.Second) / roundsPerRun)
	openD := time.Duration(float64(round) * openShare)
	closedD := round - openD
	lg := &loadgen{st: st, gen: newTrafficGen(w.Traffic, o.seed, models.TinyGPT.Vocab)}
	var warmNext, closedNext atomic.Int64
	lg.closed(phaseWarmup, 0, streamWarmup, w.closedClients(), warmup, &warmNext)
	pr = &phaseRun{lg: lg}
	if st.tr != nil {
		if err := st.markBackends(); err != nil {
			return nil, err
		}
	}
	pr.before = takeSnapshot(st)
	if st.tr != nil {
		st.tr.on.Store(true)
	}
	for r := 0; r < roundsPerRun; r++ {
		net := st.netBytes()
		if withOpen {
			arr := lg.gen.arrivals(w.OpenRate, openD, r)
			pr.late = append(pr.late, lg.open(r, streamOpen, len(pr.late), arr)...)
		}
		pr.windows = append(pr.windows, lg.closed(phaseClosed, r, streamClosed, w.closedClients(), closedD, &closedNext))
		pr.roundNet = append(pr.roundNet, st.netBytes()-net)
		if afterRound != nil {
			if err := afterRound(); err != nil {
				return nil, err
			}
		}
	}
	if st.tr != nil {
		st.tr.on.Store(false)
	}
	pr.after = takeSnapshot(st)
	if pr.gatewayRSSKB, err = peakRSSKB("self"); err != nil {
		return nil, err
	}
	if st.tr != nil {
		for _, p := range st.procs {
			rep, err := p.report()
			if err != nil {
				return nil, err
			}
			pr.reports = append(pr.reports, rep)
		}
		pr.spans = st.tr.take()
		for _, l := range st.tr.lanes {
			pr.iters = append(pr.iters, l.takeIters()...)
		}
	}
	return pr, nil
}

// lateMs is the open phase's generator lateness per request, in ms.
func (pr *phaseRun) lateMs() []float64 {
	late := make([]float64, len(pr.late))
	for i, l := range pr.late {
		late[i] = float64(l) / 1e6
	}
	return late
}

// verify compares every successful request's tokens with the ModeLocal
// reference for the same prompt, computed here, after the stack is
// gone and outside any timed window. A mismatch fails the request. It
// returns the number of mismatches.
func verify(recs []*record) (int, error) {
	type key struct{ stream, index int }
	need := map[key]*record{}
	for _, r := range recs {
		k := key{r.Stream, r.Index}
		if need[k] == nil || need[k].Req.MaxTokens < r.Req.MaxTokens {
			need[k] = r
		}
	}
	keys := make([]key, 0, len(need))
	for k := range need {
		keys = append(keys, k)
	}
	ref := make(map[key][]int64, len(keys))
	var mu sync.Mutex
	var wg sync.WaitGroup
	const workers = 2
	errs := make(chan error, workers)
	for wi := 0; wi < workers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			runner := &runtime.LLMRunner{Model: newModel()}
			for i := wi; i < len(keys); i += workers {
				r := need[keys[i]]
				res, err := runner.Generate(runtime.ModeLocal, r.Req.Prompt, r.Req.MaxTokens)
				if err != nil {
					errs <- fmt.Errorf("reference: %w", err)
					return
				}
				mu.Lock()
				ref[keys[i]] = res.Tokens
				mu.Unlock()
			}
		}(wi)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return 0, err
	}
	mismatches := 0
	for _, r := range recs {
		if !r.ok() {
			continue
		}
		want := ref[key{r.Stream, r.Index}]
		if len(want) < len(r.Tokens) || !slices.Equal(r.Tokens, want[:len(r.Tokens)]) {
			r.Err, r.Bad = "token mismatch against the local reference", true
			mismatches++
		}
	}
	return mismatches, nil
}
