package main

import (
	"fmt"
	"os"
	"slices"

	"genie/internal/models"
	"genie/internal/transport"
)

// setupsPerRound is how many extra deployments an untraced run sets up
// and tears down again after each round. setup_s is the median of
// their set-up times and the serving deployment's: the samples span
// the whole run's machine conditions, and none precedes the serving
// deployment, so the gateway process's peak RSS is the serving one.
const setupsPerRound = 4

// timeSetups deploys w n times, tearing each deployment down again, and
// appends the set-up times.
func timeSetups(w *workload, n int, setups *[]float64) error {
	for i := 0; i < n; i++ {
		st, err := deploy(w, false)
		if err != nil {
			return fmt.Errorf("deploy: %w", err)
		}
		*setups = append(*setups, st.setup.Seconds())
		if err := st.teardown(); err != nil {
			return fmt.Errorf("teardown: %w", err)
		}
	}
	return nil
}

// runTimed is the untraced run. It deploys the stack, replays warm-up,
// open and closed phases on it, tears it down, checks every token, and
// reports the end-to-end metrics.
func runTimed(w *workload, o options) (*result, error) {
	st, err := deploy(w, false)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	setups := []float64{st.setup.Seconds()}
	pr, err := replayOnce(w, o, st, true, func() error { return timeSetups(w, setupsPerRound, &setups) })
	if err != nil {
		return nil, err
	}
	res, err := newResult(o, pr.lg.recs)
	if err != nil {
		return nil, err
	}
	e := endToEnd(w, pr)
	rssKB := []int64{pr.gatewayRSSKB} // gateway process, then each backend
	var total int64
	for _, p := range st.procs {
		rssKB = append(rssKB, p.peakRSSKB)
	}
	for _, kb := range rssKB {
		total += kb
	}
	e.add("setup_s", quantile(slices.Clone(setups), 0.5), "s")
	e.add("peak_rss_mb", float64(total)/1024, "MB")
	e.add("fail_ratio", ratio(float64(res.Failed), float64(res.Attempted)), "ratio")
	res.record["metrics"] = e.m
	res.record["peak_rss_kb"] = rssKB
	res.record["setup_s_samples"] = setups
	res.record["health_transitions"] = healthTransitions(pr.after)
	res.record["requeues"] = pr.after.engine.Requeued - pr.before.engine.Requeued
	res.record["health"] = pr.after.engine.Health
	res.record["lanes"] = pr.after.engine.Backends
	res.check(e, pr)
	return res, nil
}

// replayOnce replays w on st and tears st down.
func replayOnce(w *workload, o options, st *stack, withOpen bool, afterRound func() error) (*phaseRun, error) {
	pr, err := replay(w, o, st, withOpen, afterRound)
	if terr := st.teardown(); err == nil && terr != nil {
		err = fmt.Errorf("teardown: %w", terr)
	}
	return pr, err
}

// newResult verifies recs against the reference and fills the counts
// and the record's stamp and per-phase accounting.
func newResult(o options, recs []*record) (*result, error) {
	mismatches, err := verify(recs)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, mismatches: mismatches, record: stamp(o)}
	type counts struct {
		Sent      int `json:"sent"`
		Succeeded int `json:"succeeded"`
		Failed    int `json:"failed"`
	}
	phases := map[string]*counts{"warmup": {}, "open": {}, "closed": {}}
	names := []string{"warmup", "open", "closed"}
	var failures []string
	for _, r := range recs {
		c := phases[names[r.Phase]]
		c.Sent++
		if r.ok() {
			c.Succeeded++
		} else {
			c.Failed++
			if len(failures) < 5 {
				failures = append(failures, r.Err)
			}
		}
		if r.Bad {
			res.Correct = false
		}
		if r.Phase != phaseWarmup {
			res.Attempted++
			if !r.ok() {
				res.Failed++
			}
		}
	}
	res.record["phases"] = phases
	res.record["mismatches"] = mismatches
	if len(failures) > 0 {
		res.record["first_failures"] = failures
	}
	return res, nil
}

// check marks the record invalid when the load generator ran so late
// that its lateness p99 reaches the TTFT median it measures, or when a
// tail percentile has fewer than ten samples beyond it.
func (r *result) check(e *e2e, pr *phaseRun) {
	var reasons []string
	late := pr.lateMs()
	p99, maxLate := quantile(late, 0.99), quantile(late, 1)
	r.record["late_ms_p50"] = quantile(late, 0.5)
	r.record["late_ms_p99"], r.record["late_ms_max"] = p99, maxLate
	if ttft := e.m["ttft_p50_ms"].Value; ttft > 0 && p99 > ttft {
		reasons = append(reasons, fmt.Sprintf("generator lateness p99 %.3f ms rivals ttft_p50 %.3f ms", p99, ttft))
	}
	for name, n := range e.beyond {
		if n < 10 {
			reasons = append(reasons, fmt.Sprintf("%s has %d samples beyond its percentile", name, n))
		}
	}
	r.record["samples"] = e.samples
	r.record["per_round"] = e.rounds
	r.record["valid"] = len(reasons) == 0
	if len(reasons) > 0 {
		r.record["invalid_reasons"] = reasons
		fmt.Fprintf(os.Stderr, "gatewaybench: run marked invalid: %v\n", reasons)
	}
}

// e2e accumulates metrics with their sample accounting.
type e2e struct {
	m       map[string]metric
	samples map[string]int
	// beyond is, per tail metric, the samples beyond its percentile.
	beyond map[string]int
	// rounds holds each per-round metric's value in every round.
	rounds map[string][]float64
}

func (e *e2e) add(name string, v float64, unit string) { e.m[name] = metric{Value: v, Unit: unit} }

// endToEnd computes the user-visible metrics of one replay. Medians,
// throughput and bytes per token are computed per round and reported as
// the median over rounds, so a round disturbed by the machine or by a
// health outage (whose requeues resend work) does not move them. Tails
// pool every round's samples: a tail must count the rounds an outage
// hit.
func endToEnd(w *workload, pr *phaseRun) *e2e {
	e := &e2e{m: map[string]metric{}, samples: map[string]int{}, beyond: map[string]int{}, rounds: map[string][]float64{}}
	type round struct {
		ttft, itl, satITL []float64
		satTokens, tokens int
		satSeconds        float64
		net               int64
	}
	rounds := make([]round, len(pr.windows))
	for i, win := range pr.windows {
		rounds[i].satSeconds = float64(win[1]-win[0]) / 1e9
		rounds[i].net = pr.roundNet[i]
	}
	for _, r := range pr.lg.recs {
		if r.Phase == phaseWarmup {
			continue
		}
		rd := &rounds[r.Round]
		rd.tokens += len(r.Lines)
		switch r.Phase {
		case phaseOpen:
			if !r.ok() {
				continue
			}
			rd.ttft = append(rd.ttft, float64(r.Lines[0]-r.Due)/1e6)
			for i := 1; i < len(r.Lines); i++ {
				rd.itl = append(rd.itl, float64(r.Lines[i]-r.Lines[i-1])/1e6)
			}
		case phaseClosed:
			win := pr.windows[r.Round]
			in := func(t int64) bool { return t >= win[0] && t < win[1] }
			for i, t := range r.Lines {
				if !in(t) {
					continue
				}
				rd.satTokens++
				if i > 0 && in(r.Lines[i-1]) {
					rd.satITL = append(rd.satITL, float64(t-r.Lines[i-1])/1e6)
				}
			}
		}
	}
	perRound := func(name, unit string, f func(rd *round) float64) {
		vals := make([]float64, len(rounds))
		for i := range rounds {
			vals[i] = f(&rounds[i])
		}
		e.rounds[name] = slices.Clone(vals)
		e.add(name, quantile(vals, 0.5), unit)
	}
	tail := func(name string, xs func(rd *round) []float64, p float64) {
		var all []float64
		for i := range rounds {
			all = append(all, xs(&rounds[i])...)
		}
		e.samples[name] = len(all)
		e.beyond[name] = beyond(all, p)
		e.add(name, quantile(all, p), "ms")
	}
	perRound("ttft_p50_ms", "ms", func(rd *round) float64 { return quantile(rd.ttft, 0.5) })
	tail("ttft_tail_ms", func(rd *round) []float64 { return rd.ttft }, w.TTFTTail)
	perRound("itl_p50_ms", "ms", func(rd *round) float64 { return quantile(rd.itl, 0.5) })
	tail("itl_tail_ms", func(rd *round) []float64 { return rd.itl }, w.ITLTail)
	perRound("sat_tokens_per_s", "tok/s", func(rd *round) float64 { return ratio(float64(rd.satTokens), rd.satSeconds) })
	perRound("sat_itl_p50_ms", "ms", func(rd *round) float64 { return quantile(rd.satITL, 0.5) })
	perRound("net_bytes_per_token", "B", func(rd *round) float64 { return ratio(float64(rd.net), float64(rd.tokens)) })
	return e
}

func healthTransitions(s *snapshot) int64 {
	var n int64
	for _, h := range s.engine.Health {
		n += h.Transits
	}
	return n
}

// runTraced is the traced run. An untraced deployment first measures
// closed-phase throughput without wrappers; a traced deployment then
// replays warm-up, open and closed phases with every wrapper recording.
// The per-layer metrics come from the second; obs.tracing_overhead is
// the ratio of their throughputs.
func runTraced(w *workload, o options) (*result, error) {
	plain, err := deploy(w, false)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	base, err := replayOnce(w, o, plain, false, nil)
	if err != nil {
		return nil, err
	}
	st, err := deploy(w, true)
	if err != nil {
		return nil, fmt.Errorf("deploy traced: %w", err)
	}
	pr, err := replayOnce(w, o, st, true, nil)
	if err != nil {
		return nil, err
	}
	res, err := newResult(o, append(append([]*record(nil), base.lg.recs...), pr.lg.recs...))
	if err != nil {
		return nil, err
	}
	untraced := endToEnd(w, base).m["sat_tokens_per_s"].Value
	timed := endToEnd(w, pr)
	m := perLayer(pr)
	m.add("obs.tracing_overhead", ratio(timed.m["sat_tokens_per_s"].Value, untraced), "ratio")
	res.record["metrics"] = m.m
	res.record["traced_end_to_end"] = timed.m
	res.record["untraced_sat_tokens_per_s"] = untraced
	res.check(timed, pr)
	return res, nil
}

// perLayer computes every per-layer metric of a traced replay.
func perLayer(pr *phaseRun) *e2e {
	e := &e2e{m: map[string]metric{}}
	b, a := pr.before, pr.after
	wall := float64(a.at - b.at)
	var open []*record
	var requests, tokens float64
	var promptTokens int
	var engineTTFT, failed float64
	for _, r := range pr.lg.recs {
		if r.Phase == phaseWarmup {
			continue
		}
		requests++
		tokens += float64(len(r.Lines))
		promptTokens += len(r.Req.Prompt)
		if !r.ok() {
			failed++
		}
		if r.Phase == phaseOpen {
			open = append(open, r)
		}
	}
	red := reduce(traceInput{recs: open, spans: pr.spans, backends: backendSpans(pr.reports)})

	var overhead []float64
	var nOpen float64
	for _, r := range open {
		if !r.ok() {
			continue
		}
		nOpen++
		engineTTFT += r.Summary.TTFTMs
		overhead = append(overhead, float64(r.Lines[0]-r.Start)/1e3-r.Summary.TTFTMs*1e3)
	}
	e.add("gateway.overhead_us_p50", quantile(overhead, 0.5), "us")
	e.add("serve.queue_wait_ms_mean", ratio(engineTTFT, nOpen)-mean(red.ReqPrefillMs), "ms")
	iters := make([]float64, len(pr.iters))
	for i, n := range pr.iters {
		iters[i] = float64(n)
	}
	e.add("serve.batch_occupancy_mean", mean(iters), "count")
	e.add("serve.requeues", float64(a.engine.Requeued-b.engine.Requeued), "count")

	e.add("runtime.prefill_ms_p50", quantile(red.PrefillMs, 0.5), "ms")
	e.add("runtime.step_us_p50", quantile(red.StepUs, 0.5), "us")
	e.add("runtime.client_self_us_per_step", red.ClientSelfUsPerStep, "us")
	e.add("runtime.rpcs_per_token", ratio(float64(a.totalCalls()-b.totalCalls()), tokens), "count")

	execs := float64(a.calls[transport.MsgExec] - b.calls[transport.MsgExec])
	e.add("transport.exec_rtt_us_p50", quantile(red.ExecRTTUs, 0.5), "us")
	e.add("transport.wire_us_per_exec", red.WireUsPerExec, "us")
	e.add("transport.sent_bytes_per_exec", ratio(float64(a.sent[transport.MsgExec]-b.sent[transport.MsgExec]), execs), "B")
	e.add("transport.recv_bytes_per_exec", ratio(float64(a.recv[transport.MsgExecOK]-b.recv[transport.MsgExecOK]), execs), "B")
	e.add("transport.upload_calls", float64(a.calls[transport.MsgUpload]-b.calls[transport.MsgUpload]), "count")

	var gpu, backendExecs float64
	var alloc uint64
	for _, rep := range pr.reports {
		gpu += float64(rep.GPUBusyNs)
		backendExecs += float64(rep.ExecCalls)
		alloc += rep.AllocBytes
	}
	nb := float64(len(pr.reports))
	e.add("backend.service_us_p50", quantile(red.ServiceUs, 0.5), "us")
	e.add("backend.exec_us_p50", quantile(red.ExecUs, 0.5), "us")
	e.add("backend.busy_share", ratio(float64(red.ServiceNs), wall*nb), "ratio")
	e.add("backend.modeled_gpu_util", ratio(gpu, wall*nb), "ratio")
	e.add("backend.alloc_bytes_per_exec", ratio(float64(alloc), backendExecs), "B")

	// Snapshots of a layer the workload does not deploy are zero, so its
	// metrics read 0.
	kvBytes := float64(promptTokens) * float64(models.TinyGPT.KVBytesPerToken())
	e.add("kvcache.prefix_token_share", ratio(float64(a.cache.BytesSaved-b.cache.BytesSaved), kvBytes), "ratio")
	e.add("kvcache.evictions_per_request", ratio(float64(a.cache.Evictions-b.cache.Evictions), requests), "count")
	e.add("kvcache.resident_bytes", float64(a.cache.ResidentBytes), "B")
	e.add("kvcache.delta_bytes_per_request", ratio(float64(a.delta-b.delta), requests), "B")

	e.add("health.transitions", float64(healthTransitions(a)), "count")
	var probes int64
	for _, h := range a.engine.Health {
		probes += h.Probes
	}
	e.add("health.probes", float64(probes), "count")

	e.add("pool.segment_execs_per_token", ratio(float64(a.pool.SegmentExecs-b.pool.SegmentExecs), tokens), "count")
	e.add("pool.cross_shard_bytes_per_token", ratio(float64(a.pool.CrossShardBytes-b.pool.CrossShardBytes), tokens), "B")
	e.add("pool.plan_rebuilds", float64(a.pool.Rebuilds-b.pool.Rebuilds), "count")

	e.add("proc.alloc_bytes_per_token", ratio(float64(a.mem.TotalAlloc-b.mem.TotalAlloc), tokens), "B")
	e.add("proc.gc_pause_ms_per_s", ratio(float64(a.mem.PauseTotalNs-b.mem.PauseTotalNs)/1e6, wall/1e9), "ms/s")
	e.add("loadgen.late_ms_p99", quantile(pr.lateMs(), 0.99), "ms")
	e.add("loadgen.fail_ratio", ratio(failed, requests), "ratio")

	e.add("reduce.wall_ms", red.Wall, "ms")
	e.add("reduce.gateway_ms", red.Gateway, "ms")
	e.add("reduce.serve_queue_ms", red.ServeQueue, "ms")
	e.add("reduce.serve_batch_ms", red.ServeBatch, "ms")
	e.add("reduce.runtime_ms", red.Runtime, "ms")
	e.add("reduce.transport_ms", red.Transport, "ms")
	e.add("reduce.backend_ms", red.Backend, "ms")
	e.add("reduce.remainder_ms", red.Remainder, "ms")
	return e
}

func backendSpans(reps []*backendReport) [][][3]int64 {
	out := make([][][3]int64, len(reps))
	for i, r := range reps {
		out[i] = r.Spans
	}
	return out
}
