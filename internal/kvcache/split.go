package kvcache

import (
	"context"
	"fmt"
	"time"

	"genie/internal/health"
	"genie/internal/lazy"
	"genie/internal/models"
	"genie/internal/nn"
	"genie/internal/obs"
	"genie/internal/runtime"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// SplitConfig wires a prefill/decode disaggregated runner: prefill is
// compute-bound (quadratic attention over the prompt), decode is
// bandwidth-bound (weights + KV per token), so the two phases want
// different backends. Only the semantics-aware ΔKV delta — the fresh
// suffix rows — crosses the boundary; a cache-hit prefix is re-sent as a
// dedup-hinted bind that collapses to a 32-byte hash once the decode
// connection has seen it.
type SplitConfig struct {
	Model *models.GPT
	// Prefill executes prompt passes; its KV state is throwaway (nothing
	// is kept resident there).
	Prefill runtime.Endpoint
	// Decode executes decode steps; handed-off KV lives here under the
	// session's scoped keys.
	Decode runtime.Endpoint
	// DecodeCounters, when set, feeds the runner's traffic metrics (point
	// it at the decode connection).
	DecodeCounters *transport.Counters
	// Cache, when set, is the shared prefix cache consulted before
	// prefill. Nil disaggregates without prefix reuse.
	Cache *Manager
	// OnPrefillFailure, when set, is invoked when a prefill execution
	// fails; returning nil retries the prefill exactly once (the chaos
	// recovery hook — lineage failover onto a spare backend slots in
	// here). Nil or a non-nil return surfaces the original error.
	OnPrefillFailure func(error) error
	// Metrics receives the ΔKV handoff series; nil keeps a private
	// registry.
	Metrics *obs.Registry

	// Lanes optionally names a pool of prefill endpoints. When set,
	// Prefill may be nil; each request's primary is the healthiest lane
	// (per Health) or the first lane. Two or more lanes unlock hedging.
	Lanes []PrefillLane
	// Health, when set, ranks lanes per request, derives the adaptive
	// hedge deadline, and is fed every prefill exec's latency/outcome —
	// the same scorer the serving engine and pool consume, with the
	// prefill lanes judged only against each other.
	Health *health.Set
	// HedgePrefill issues the prefill to a second lane when the first
	// has not answered within the adaptive deadline; the first result
	// wins, the loser is cancelled (deliberately poisoning its conn —
	// the fail-slow lane becomes fail-stop and its health tracker sees
	// it), and exactly one result reaches the prefix cache.
	HedgePrefill bool
	// HedgeFloor is the minimum wait before hedging (default 25ms); the
	// adaptive deadline (health.Config.HedgeFactor × the healthiest
	// lane's EWMA) never drops below it.
	HedgeFloor time.Duration
}

// healthPeers is the peer group prefill lanes register their trackers
// in: a prefill exec is judged only against other prefill execs.
const healthPeers = "prefill"

// PrefillLane is one named member of the prefill pool.
type PrefillLane struct {
	Name string
	EP   runtime.Endpoint
}

// Split runs prefill and decode on different backends, shipping the ΔKV
// suffix between them.
type Split struct {
	cfg          SplitConfig
	deltaBytes   *obs.Counter
	deltaTokens  *obs.Counter
	hedged       *obs.Counter
	hedgeWins    *obs.Counter
	hedgeCancels *obs.Counter
}

// NewSplit validates the wiring.
func NewSplit(cfg SplitConfig) (*Split, error) {
	if cfg.Model == nil || cfg.Decode == nil || (cfg.Prefill == nil && len(cfg.Lanes) == 0) {
		return nil, fmt.Errorf("kvcache: split needs a model, a decode endpoint, and a prefill endpoint or lanes")
	}
	for _, ln := range cfg.Lanes {
		if ln.Name == "" || ln.EP == nil {
			return nil, fmt.Errorf("kvcache: every prefill lane needs a name and an endpoint")
		}
	}
	if cfg.HedgeFloor <= 0 {
		cfg.HedgeFloor = 25 * time.Millisecond
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Split{
		cfg:         cfg,
		deltaBytes:  reg.Counter("genie_kvcache_split_delta_bytes_total", "KV suffix bytes handed prefill->decode"),
		deltaTokens: reg.Counter("genie_kvcache_split_delta_tokens_total", "KV suffix tokens handed prefill->decode"),
		hedged: reg.Counter("genie_kvcache_hedged_prefills_total",
			"prefills issued to a second lane past the adaptive deadline"),
		hedgeWins: reg.Counter("genie_kvcache_hedge_wins_total",
			"hedged prefills won by the backup lane"),
		hedgeCancels: reg.Counter("genie_kvcache_hedge_cancelled_total",
			"losing hedge execs cancelled in flight"),
	}, nil
}

// Hedged/HedgeWins/HedgeCancelled report hedged-prefill activity.
func (sp *Split) Hedged() int64         { return sp.hedged.Value() }
func (sp *Split) HedgeWins() int64      { return sp.hedgeWins.Value() }
func (sp *Split) HedgeCancelled() int64 { return sp.hedgeCancels.Value() }

// InstallWeights provisions both endpoints with the model weights.
// Callers routing the prefill endpoint through a lineage.TrackedEndpoint
// get replayable provenance for free.
func (sp *Split) InstallWeights() error {
	eps := []runtime.Endpoint{sp.cfg.Decode}
	if sp.cfg.Prefill != nil {
		eps = append(eps, sp.cfg.Prefill)
	}
	for _, ln := range sp.cfg.Lanes {
		eps = append(eps, ln.EP)
	}
	for _, ep := range eps {
		r := &runtime.LLMRunner{Model: sp.cfg.Model, EP: ep}
		if _, err := r.InstallModelWeights(); err != nil {
			return err
		}
	}
	return nil
}

// rankedLanes orders the prefill pool for this request: healthiest
// first when a scorer is wired, configured order otherwise. Without
// named lanes the single Prefill endpoint is the whole pool.
func (sp *Split) rankedLanes() []PrefillLane {
	if len(sp.cfg.Lanes) == 0 {
		return []PrefillLane{{Name: "prefill", EP: sp.cfg.Prefill}}
	}
	if sp.cfg.Health == nil {
		return sp.cfg.Lanes
	}
	names := make([]string, len(sp.cfg.Lanes))
	byName := make(map[string]PrefillLane, len(sp.cfg.Lanes))
	for i, ln := range sp.cfg.Lanes {
		names[i] = ln.Name
		byName[ln.Name] = ln
	}
	ranked := sp.cfg.Health.Healthiest(names)
	out := make([]PrefillLane, 0, len(ranked))
	for _, n := range ranked {
		out = append(out, byName[n])
	}
	return out
}

// execOnLane runs one prefill exec on a lane, threading ctx through
// when the endpoint supports per-call cancellation (transport.Client
// does), and feeds the result to the health scorer. A cancelled exec —
// the losing half of a hedge — is not held against the lane's latency
// EWMA: the duration measures our patience, not the lane.
func (sp *Split) execOnLane(ctx context.Context, ln PrefillLane, ex *transport.Exec) (*transport.ExecOK, error) {
	type ctxExecer interface {
		ExecCtx(context.Context, *transport.Exec) (*transport.ExecOK, error)
	}
	t0 := time.Now()
	var ok *transport.ExecOK
	var err error
	if ec, can := ln.EP.(ctxExecer); can && ctx != nil {
		ok, err = ec.ExecCtx(ctx, ex)
	} else {
		ok, err = ln.EP.Exec(ex)
	}
	if sp.cfg.Health != nil {
		sp.cfg.Health.Endpoint(healthPeers, ln.Name).Observe(time.Since(t0), err)
	}
	return ok, err
}

// execPrefill dispatches the phase-1 exec: straight through on a single
// lane, hedged across the two healthiest when enabled. Exactly one
// ExecOK ever comes back, so downstream cache insertion and ΔKV handoff
// see one winner no matter how many lanes raced.
func (sp *Split) execPrefill(ctx context.Context, ex *transport.Exec) (*transport.ExecOK, error) {
	lanes := sp.rankedLanes()
	if !sp.cfg.HedgePrefill || len(lanes) < 2 {
		return sp.execOnLane(ctx, lanes[0], ex)
	}
	return sp.hedgeExec(ctx, lanes[0], lanes[1], ex)
}

// hedgeExec races the primary lane against a backup: the backup
// launches when the primary misses the adaptive deadline (or fails
// outright), the first success wins, and the loser's exec is cancelled
// mid-flight. Cancellation poisons the loser's conn by design — that is
// the fail-slow → fail-stop conversion: a browned-out lane that would
// otherwise stay wedged now fails its next call fast and its health
// tracker reacts. Both workers send to a buffered channel, so
// the loser always runs to completion and nothing leaks.
func (sp *Split) hedgeExec(ctx context.Context, primary, backup PrefillLane, ex *transport.Exec) (*transport.ExecOK, error) {
	if ctx == nil {
		//lint:ignore ctxflow nil-context fallback, not a propagation hole
		ctx = context.Background()
	}
	deadline := sp.cfg.HedgeFloor
	if sp.cfg.Health != nil {
		deadline = sp.cfg.Health.HedgeDeadline(healthPeers, sp.cfg.HedgeFloor)
	}
	type result struct {
		ok     *transport.ExecOK
		err    error
		backup bool
	}
	ch := make(chan result, 2)
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	launch := func(ln PrefillLane, isBackup bool) {
		go func() {
			ok, err := sp.execOnLane(hctx, ln, ex)
			ch <- result{ok, err, isBackup}
		}()
	}
	launch(primary, false)
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	pending, hedgedNow := 1, false
	var firstErr error
	for {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				if r.backup {
					sp.hedgeWins.Inc()
				}
				if pending > 0 {
					// The loser is still in flight: cancel it. The deferred
					// cancel would fire anyway; counting here keeps the
					// metric honest about in-flight cancellations only.
					cancel()
					sp.hedgeCancels.Inc()
				}
				return r.ok, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !hedgedNow {
				// The primary failed before the deadline: hedge immediately
				// rather than waiting out a timer nobody is racing.
				hedgedNow = true
				pending++
				sp.hedged.Inc()
				launch(backup, true)
				continue
			}
			if pending == 0 {
				return nil, firstErr
			}
		case <-timer.C:
			if !hedgedNow {
				hedgedNow = true
				pending++
				sp.hedged.Inc()
				launch(backup, true)
			}
		}
	}
}

// DeltaBytes reports total KV bytes shipped across the phase boundary —
// by construction exactly suffixTokens × Model.Cfg.KVBytesPerToken().
func (sp *Split) DeltaBytes() int64 { return sp.deltaBytes.Value() }

// DeltaTokens reports total suffix tokens handed off.
func (sp *Split) DeltaTokens() int64 { return sp.deltaTokens.Value() }

// Runner returns the disaggregated LLMRunner. The runner's EP and
// counters point at the decode side (where sessions live); weights must
// already be installed on both endpoints (InstallWeights).
func (sp *Split) Runner() *runtime.LLMRunner {
	return &runtime.LLMRunner{
		Model:           sp.cfg.Model,
		EP:              sp.cfg.Decode,
		Counters:        sp.cfg.DecodeCounters,
		WeightsResident: true,
		NewStrategy: func(_ context.Context, mode runtime.Mode, scope string) (runtime.Strategy, error) {
			if mode != runtime.ModeSemAware {
				return nil, fmt.Errorf("kvcache: split runner supports mode semantics_aware, not %s", mode)
			}
			return &splitSession{sp: sp, scope: scope, nilCaches: nilCaches(sp.cfg.Model)}, nil
		},
	}
}

type splitSession struct {
	sp        *Split
	scope     string
	pin       *Pin
	epoch     uint32
	hist      int
	nilCaches []*nn.KVCache
}

func (s *splitSession) Prefill(ctx context.Context, prompt []int64) (int64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	sp := s.sp
	cfg := sp.cfg.Model.Cfg

	var (
		pin     *Pin
		prefix  []*nn.KVCache
		release = func() {}
		matched int
		err     error
	)
	if sp.cfg.Cache != nil {
		pin, prefix, release, matched, err = sp.cfg.Cache.Lookup(prompt)
		if err != nil {
			return 0, err
		}
	}
	defer release()

	// Phase 1: prefill on the prefill backend. Nothing is kept resident
	// there — its copy of the KV state is throwaway; we only want the
	// next token and the fresh suffix rows.
	b, plan := buildPrefill(sp.cfg.Model, prompt, matched, prefix)
	ex := &transport.Exec{Graph: b.Graph()}
	for _, n := range b.Graph().Nodes() {
		if n.Op != "input" {
			continue
		}
		data, _ := b.InputData(n.Ref)
		cache := n.Residency == srg.ResidencyStatefulKVCache
		ex.Binds = append(ex.Binds, transport.Binding{Ref: n.Ref, Inline: data, Cache: cache})
	}
	ex.Want = append(ex.Want, plan.next)
	for i := range plan.newK {
		ex.Want = append(ex.Want, plan.newK[i], plan.newV[i])
	}
	ok, err := sp.execPrefill(ctx, ex)
	if err != nil && sp.cfg.OnPrefillFailure != nil {
		if herr := sp.cfg.OnPrefillFailure(err); herr == nil {
			ok, err = sp.execPrefill(ctx, ex)
		}
	}
	if err != nil {
		pin.Unpin()
		return 0, err
	}
	suffixK := make([]*tensor.Tensor, cfg.Layers)
	suffixV := make([]*tensor.Tensor, cfg.Layers)
	for i := 0; i < cfg.Layers; i++ {
		suffixK[i], suffixV[i] = ok.Results[plan.newK[i]], ok.Results[plan.newV[i]]
	}

	if sp.cfg.Cache != nil {
		insertPin, ierr := sp.cfg.Cache.Insert(prompt, matched, suffixK, suffixV)
		pin.Unpin()
		if ierr != nil {
			return 0, ierr
		}
		s.pin = insertPin
	}

	// Phase 2: ΔKV handoff. One exec on the decode backend assembles
	// prefix ++ suffix into the session's scoped resident keys. The
	// suffix rows are the only novel content — the analytic per-token KV
	// delta; the prefix bind is dedup-hinted, so once this decode
	// connection has seen a shared prefix it re-transfers as a 32-byte
	// hash.
	hb := lazy.NewBuilder("kvcache.handoff")
	hb.SetModality(srg.ModalityText)
	hx := &transport.Exec{Keep: map[srg.NodeID]string{}}
	var delta int64
	for i := 0; i < cfg.Layers; i++ {
		for _, half := range []struct {
			name   string
			prefix *tensor.Tensor
			suffix *tensor.Tensor
		}{
			{"k", prefixHalf(prefix, i, "k"), suffixK[i]},
			{"v", prefixHalf(prefix, i, "v"), suffixV[i]},
		} {
			parts := make([]lazy.Value, 0, 2)
			if half.prefix != nil {
				pv := hb.Input(fmt.Sprintf("prefix.%d.%s", i, half.name), half.prefix)
				hx.Binds = append(hx.Binds, transport.Binding{
					Ref: fmt.Sprintf("prefix.%d.%s", i, half.name), Inline: half.prefix, Cache: true})
				parts = append(parts, pv)
			}
			sv := hb.Input(fmt.Sprintf("suffix.%d.%s", i, half.name), half.suffix)
			hx.Binds = append(hx.Binds, transport.Binding{
				Ref: fmt.Sprintf("suffix.%d.%s", i, half.name), Inline: half.suffix})
			parts = append(parts, sv)
			full := hb.Concat(0, parts...)
			hb.MarkOutput(full)
			hx.Keep[full.ID()] = s.scope + models.CacheRef(i, half.name)
			delta += int64(half.suffix.NumBytes())
		}
	}
	hx.Graph = hb.Graph()
	hok, err := sp.cfg.Decode.Exec(hx)
	if err != nil {
		return 0, err
	}
	sp.deltaBytes.Add(delta)
	sp.deltaTokens.Add(int64(len(prompt) - matched))
	s.epoch = hok.Epoch
	s.hist = len(prompt)
	return ok.Results[plan.next].I64()[0], nil
}

// prefixHalf extracts one layer-half tensor from the gathered prefix
// (nil on a cache miss or when no cache is configured).
func prefixHalf(prefix []*nn.KVCache, layer int, half string) *tensor.Tensor {
	if prefix == nil {
		return nil
	}
	if half == "k" {
		return prefix[layer].K
	}
	return prefix[layer].V
}

func (s *splitSession) Step(ctx context.Context, tok int64) (int64, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	b, out := s.sp.cfg.Model.BuildDecodeStep(tok, s.hist, s.hist, s.nilCaches)
	ex := &transport.Exec{Graph: b.Graph()}
	for _, n := range b.Graph().Nodes() {
		if n.Op != "input" {
			continue
		}
		if n.Residency == srg.ResidencyStatefulKVCache {
			ex.Binds = append(ex.Binds, transport.Binding{
				Ref: n.Ref, Key: s.scope + n.Ref, Epoch: s.epoch})
			continue
		}
		data, _ := b.InputData(n.Ref)
		ex.Binds = append(ex.Binds, transport.Binding{Ref: n.Ref, Inline: data})
	}
	ex.Keep = map[srg.NodeID]string{}
	for i := range out.CacheK {
		ex.Keep[out.CacheK[i]] = s.scope + models.CacheRef(i, "k")
		ex.Keep[out.CacheV[i]] = s.scope + models.CacheRef(i, "v")
	}
	ex.Want = append(ex.Want, out.LastLogits, out.NextToken)
	ok, err := s.sp.cfg.Decode.Exec(ex)
	if err != nil {
		return 0, err
	}
	s.epoch = ok.Epoch
	s.hist++
	return ok.Results[out.NextToken].I64()[0], nil
}

func (s *splitSession) Close() error {
	s.pin.Unpin()
	var first error
	for _, k := range s.ResidentKeys() {
		if err := s.sp.cfg.Decode.Free(k); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ResidentKeys reports the session's decode-side resident cache keys.
func (s *splitSession) ResidentKeys() []string {
	return scopedKeys(s.scope, s.sp.cfg.Model)
}
