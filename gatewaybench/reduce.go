package main

import (
	"cmp"
	"slices"
)

// traceInput is everything one traced window produced.
type traceInput struct {
	recs     []*record // open-phase requests, reduced per request
	spans    []span
	backends [][][3]int64 // per backend index: [read start, exec hook, write end]
}

// reduction is the traced window turned into per-layer numbers.
type reduction struct {
	// Mean self time per open-phase request, ms, by layer; the layers
	// plus Remainder equal Wall.
	Wall, Gateway, ServeQueue, ServeBatch, Runtime, Transport, Backend, Remainder float64

	PrefillMs, StepUs, ExecRTTUs []float64
	// ReqPrefillMs are the Prefill times of the reduced requests only.
	ReqPrefillMs        []float64
	ClientSelfUsPerStep float64
	WireUsPerExec       float64
	ServiceUs, ExecUs   []float64
	ServiceNs           int64
}

// reduce turns spans into self time per layer. Each request's
// handler-observed wall time splits into:
//
//   - gateway: handler wall minus the engine's own latency_ms;
//   - serve queue: time the request's lane spent on other requests'
//     Strategy calls before this request's Prefill;
//   - serve batch: the same between its Prefill and its last call;
//   - runtime: its Strategy call time minus Endpoint time inside it;
//   - transport: Endpoint time minus the backend service time inside it
//     (backend spans match the Endpoint call that contains them: a
//     connection carries one call at a time);
//   - backend: that service time;
//
// and the unattributed remainder (lane bookkeeping, scheduling, idle
// gaps) is whatever is left.
func reduce(in traceInput) reduction {
	var red reduction
	strat := map[int16][]span{} // per lane, by start
	byReq := map[int64][]span{}
	epByBackend := map[int16][]int{} // indices into eps
	var eps []span
	for _, s := range in.spans {
		switch s.Kind {
		case kindPrefill, kindStep, kindClose:
			strat[s.Lane] = append(strat[s.Lane], s)
			if s.Req != 0 {
				byReq[s.Req] = append(byReq[s.Req], s)
			}
		default:
			epByBackend[s.Backend] = append(epByBackend[s.Backend], len(eps))
			eps = append(eps, s)
		}
	}
	for l := range strat {
		slices.SortFunc(strat[l], func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	}

	// Match backend spans to the Endpoint calls containing them.
	svc := make([]int64, len(eps))
	for b, idx := range epByBackend {
		slices.SortFunc(idx, func(x, y int) int { return cmp.Compare(eps[x].Start, eps[y].Start) })
		if int(b) >= len(in.backends) || b < 0 {
			continue
		}
		bs := slices.Clone(in.backends[b])
		slices.SortFunc(bs, func(x, y [3]int64) int { return cmp.Compare(x[0], y[0]) })
		j := 0
		for _, s := range bs {
			red.ServiceUs = append(red.ServiceUs, float64(s[2]-s[0])/1e3)
			red.ServiceNs += s[2] - s[0]
			if s[1] != 0 {
				red.ExecUs = append(red.ExecUs, float64(s[2]-s[1])/1e3)
			}
			for j+1 < len(idx) && eps[idx[j+1]].Start <= s[0] {
				j++
			}
			if j < len(idx) {
				e := eps[idx[j]]
				if e.Start <= s[0] && s[2] <= e.End {
					svc[idx[j]] += s[2] - s[0]
				}
			}
		}
	}

	// Endpoint time and backend time under each strategy span.
	epUnder := map[int64]int64{}
	bkUnder := map[int64]int64{}
	var wire []float64
	for i, e := range eps {
		d := e.End - e.Start
		if e.Parent != 0 {
			epUnder[e.Parent] += d
			bkUnder[e.Parent] += svc[i]
		}
		if e.Kind == kindExec {
			red.ExecRTTUs = append(red.ExecRTTUs, float64(d)/1e3)
			if svc[i] > 0 {
				wire = append(wire, float64(d-svc[i])/1e3)
			}
		}
	}
	red.WireUsPerExec = mean(wire)
	var self []float64
	for _, ss := range strat {
		for _, s := range ss {
			d := s.End - s.Start
			switch s.Kind {
			case kindPrefill:
				red.PrefillMs = append(red.PrefillMs, float64(d)/1e6)
			case kindStep:
				red.StepUs = append(red.StepUs, float64(d)/1e3)
				self = append(self, float64(d-epUnder[s.ID])/1e3)
			}
		}
	}
	red.ClientSelfUsPerStep = mean(self)

	var n float64
	for _, r := range in.recs {
		own := byReq[r.ID]
		if !r.ok() || len(own) == 0 {
			continue
		}
		n++
		wall := float64(r.End - r.Start)
		gateway := wall - r.Summary.LatencyMs*1e6
		var s, e, b int64
		first, last := own[0].Start, own[0].End
		for _, o := range own {
			s += o.End - o.Start
			if o.Kind == kindPrefill {
				red.ReqPrefillMs = append(red.ReqPrefillMs, float64(o.End-o.Start)/1e6)
			}
			e += epUnder[o.ID]
			b += bkUnder[o.ID]
			first = min(first, o.Start)
			last = max(last, o.End)
		}
		lane := strat[own[0].Lane]
		queue := busy(lane, r.Start, first)
		batch := busy(lane, first, last) - s
		red.Wall += wall
		red.Gateway += gateway
		red.ServeQueue += float64(queue)
		red.ServeBatch += float64(batch)
		red.Runtime += float64(s - e)
		red.Transport += float64(e - b)
		red.Backend += float64(b)
		red.Remainder += wall - gateway - float64(queue+batch+s)
	}
	if n > 0 {
		for _, f := range []*float64{&red.Wall, &red.Gateway, &red.ServeQueue, &red.ServeBatch,
			&red.Runtime, &red.Transport, &red.Backend, &red.Remainder} {
			*f /= n * 1e6
		}
	}
	return red
}

// busy sums the time the lane's (serial, start-sorted) spans cover
// within [a, b).
func busy(lane []span, a, b int64) int64 {
	if b <= a {
		return 0
	}
	i, _ := slices.BinarySearchFunc(lane, a, func(s span, t int64) int { return cmp.Compare(s.End, t+1) })
	var sum int64
	for ; i < len(lane) && lane[i].Start < b; i++ {
		sum += min(lane[i].End, b) - max(lane[i].Start, a)
	}
	return sum
}
