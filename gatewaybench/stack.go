package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"genie/internal/cluster"
	"genie/internal/device"
	"genie/internal/health"
	"genie/internal/kvcache"
	"genie/internal/models"
	"genie/internal/obs"
	"genie/internal/pool"
	"genie/internal/runtime"
	"genie/internal/serve"
	"genie/internal/transport"
)

// stack is one deployment of the serving stack: backend processes, the
// gateway's engine and its HTTP handler, called in-process.
type stack struct {
	procs   []*backendProc
	conns   []*transport.Conn
	engine  *serve.Engine
	handler http.Handler
	tel     *transport.Telemetry
	health  *health.Set
	cache   *kvcache.Manager
	split   *kvcache.Split
	pool    *pool.Manager
	// tr is nil on untraced deployments: then no wrapper is installed.
	tr    *tracer
	setup time.Duration
}

// The deployment: cmd/genie-gateway's defaults (mode semantics_aware,
// -queue 64, -batch 8, -max-tokens 32, -op-timeout 2s, -retry-budget 1,
// -retry-after 1s, breaker 3 failures / 1s, -health on with
// quarantine factor 8, error rate 0.5 and cooldown 2s, wire features
// not negotiated, no engine tracer), plus a prefix cache on colocated
// and split lanes. The cache budget, 32 pages of 16 tokens, holds the
// hot prefixes but not the unique suffix rows every request inserts,
// so after warm-up every insert evicts, as a full production cache
// does. A pool joins every member into its pipeline
// (-pool-rebalance-on-join): by default members after the first are
// hot spares.
const (
	weightsSeed        = 1
	queueDepth         = 64
	batchSize          = 8
	defaultMaxTokens   = 32
	opTimeout          = 2 * time.Second
	retryBudget        = 1
	retryAfter         = time.Second
	breakerThreshold   = 3
	breakerCooldown    = time.Second
	quarantineFactor   = 8
	quarantineErrRate  = 0.5
	quarantineCooldown = 2 * time.Second
	prefixCacheBytes   = 256 << 10
	kvPageTokens       = 16
	backends           = 2
)

func newModel() *models.GPT {
	return models.NewGPT(rand.New(rand.NewSource(weightsSeed)), models.TinyGPT)
}

// deploy starts the stack for w the way cmd/genie-gateway wires the
// same flags, and times it from the first backend spawn to a started
// engine.
func deploy(w *workload, traced bool) (st *stack, err error) {
	start := time.Now()
	st = &stack{}
	defer func() {
		if err != nil {
			_ = st.teardown() // the deploy error is the one to report
			st = nil
		}
	}()
	if traced {
		st.tr = &tracer{}
	}
	for i := 0; i < backends; i++ {
		p, err := startBackend(traced)
		if err != nil {
			return st, err
		}
		st.procs = append(st.procs, p)
	}

	reg := obs.NewRegistry()
	st.tel = transport.NewTelemetry(reg)
	// One health set scores every endpoint, as in the gateway.
	st.health = health.NewSet(health.Config{
		QuarantineFactor:  quarantineFactor,
		QuarantineErrRate: quarantineErrRate,
		Cooldown:          quarantineCooldown,
		Metrics:           reg,
	})
	// dial returns the endpoint for backend i: the plain client when
	// untraced, the timing wrapper on lane l when traced.
	dial := func(i int, l *laneTrace) (runtime.Endpoint, *transport.Conn, error) {
		conn, err := transport.Dial(st.procs[i].addr, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		st.conns = append(st.conns, conn)
		conn.SetTelemetry(st.tel)
		c := transport.NewClient(conn)
		if l == nil {
			return c, conn, nil
		}
		return &tracedEndpoint{c: c, lane: l, backend: int16(i)}, conn, nil
	}
	newLane := func() *laneTrace {
		if st.tr == nil {
			return nil
		}
		return st.tr.newLane()
	}
	wrap := func(r *runtime.LLMRunner, l *laneTrace) *runtime.LLMRunner {
		if l == nil {
			return r
		}
		return traceRunner(r, l)
	}

	var lanes []serve.Backend
	var poolStats, cacheStats func() any
	// The cache does not compose with the pool.
	if w.Topology != topoPool {
		st.cache, err = kvcache.NewManager(kvcache.Config{
			Model:       newModel(),
			BudgetBytes: prefixCacheBytes,
			PageTokens:  kvPageTokens,
			Metrics:     reg,
		})
		if err != nil {
			return st, err
		}
		cacheStats = func() any { return st.cache.Snapshot() }
	}
	switch w.Topology {
	case topoColocated:
		for i := 0; i < w.Lanes; i++ {
			l := newLane()
			ep, conn, err := dial(i, l)
			if err != nil {
				return st, err
			}
			lanes = append(lanes, serve.Backend{
				Name:   st.procs[i].addr,
				Runner: wrap(st.cache.RunnerOn(ep, conn.Counters()), l),
			})
		}
	case topoSplit:
		l := newLane()
		pre, _, err := dial(0, l)
		if err != nil {
			return st, err
		}
		dec, decConn, err := dial(1, l)
		if err != nil {
			return st, err
		}
		st.split, err = kvcache.NewSplit(kvcache.SplitConfig{
			Model:          st.cache.Model(),
			Prefill:        pre,
			Decode:         dec,
			DecodeCounters: decConn.Counters(),
			Cache:          st.cache,
			Metrics:        reg,
			Health:         st.health,
		})
		if err != nil {
			return st, err
		}
		if err := st.split.InstallWeights(); err != nil {
			return st, fmt.Errorf("install weights: %w", err)
		}
		lanes = append(lanes, serve.Backend{Name: "split:" + st.procs[1].addr, Runner: wrap(st.split.Runner(), l)})
	case topoPool:
		st.pool, err = pool.NewManager(pool.Config{
			Model:           newModel(),
			Strategy:        pool.StrategyPipeline,
			Metrics:         reg,
			RebalanceOnJoin: true,
			Health:          st.health,
		})
		if err != nil {
			return st, err
		}
		l := newLane()
		for i := range st.procs {
			ep, _, err := dial(i, l)
			if err != nil {
				return st, err
			}
			// The gateway's 25 Gbps link and modeled A100 members.
			if err := st.pool.Join(st.procs[i].addr, ep, device.A100, cluster.Link{Bandwidth: 3.125e9}); err != nil {
				return st, err
			}
		}
		if plan := st.pool.Plan(); plan == nil || len(plan.Members()) != len(st.procs) {
			return st, errors.New("pool shard plan does not span every member")
		}
		lanes = append(lanes, serve.Backend{Name: "pool", Runner: wrap(st.pool.Runner(), l)})
		poolStats = func() any { return st.pool.Status() }
	default:
		return st, fmt.Errorf("unknown topology %q", w.Topology)
	}

	st.engine, err = serve.NewEngine(serve.Config{
		Mode:             runtime.ModeSemAware,
		MaxQueue:         queueDepth,
		MaxBatch:         batchSize,
		DefaultMaxTokens: defaultMaxTokens,
		RetryBudget:      retryBudget,
		RetryAfter:       retryAfter,
		OpTimeout:        opTimeout,
		BreakerThreshold: breakerThreshold,
		BreakerCooldown:  breakerCooldown,
		Metrics:          reg,
		PoolStats:        poolStats,
		CacheStats:       cacheStats,
		Health:           st.health,
	}, lanes)
	if err != nil {
		return st, err
	}
	st.engine.Start()
	st.handler = serve.NewHandler(st.engine)
	st.setup = time.Since(start)
	return st, nil
}

// netBytes sums socket bytes in both directions on every backend
// connection.
func (st *stack) netBytes() int64 {
	var n int64
	for _, c := range st.conns {
		n += c.Counters().Total()
	}
	return n
}

// markBackends opens a traced window on every backend process.
func (st *stack) markBackends() error {
	for _, p := range st.procs {
		if err := p.mark(); err != nil {
			return err
		}
	}
	return nil
}

// teardown drains the engine, closes the backend connections and stops
// the backend processes, waiting for each to exit.
func (st *stack) teardown() error {
	var first error
	if st.engine != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := st.engine.Drain(ctx); err != nil {
			first = fmt.Errorf("drain: %w", err)
		}
		cancel()
		st.engine.Stop()
	}
	for _, c := range st.conns {
		_ = c.Close()
	}
	for _, p := range st.procs {
		if err := p.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
