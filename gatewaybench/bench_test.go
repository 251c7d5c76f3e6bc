package main

import (
	"math"
	"os"
	"slices"
	"testing"

	"genie/internal/transport"
)

func TestMain(m *testing.M) {
	// The stack re-executes this test binary as its backend processes.
	if os.Getenv(envRole) == "backend" {
		os.Exit(runBackend())
	}
	os.Exit(m.Run())
}

// sequentialRun deploys w, sends n requests one after another (so the
// prefix cache sees the same order every time) and returns each
// request's tokens and the per-kind RPC counts from transport.Telemetry
// over the deployment's life.
func sequentialRun(t *testing.T, w *workload, traced bool, n int) ([][]int64, map[transport.MsgType]int64, *stack) {
	t.Helper()
	st, err := deploy(w, traced)
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if traced {
		st.tr.on.Store(true)
	}
	lg := &loadgen{st: st, gen: newTrafficGen(w.Traffic, 7, 96)}
	for i := 0; i < n; i++ {
		lg.do(phaseClosed, 0, streamClosed, i)
	}
	requeued := st.engine.Stats().Requeued
	if err := st.teardown(); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	if mism, err := verify(lg.recs); err != nil || mism != 0 {
		t.Fatalf("verify: %d mismatches, %v", mism, err)
	}
	var tokens [][]int64
	for _, r := range lg.recs {
		if !r.ok() {
			t.Fatalf("request %d failed: %s", r.Index, r.Err)
		}
		tokens = append(tokens, r.Tokens)
	}
	if requeued != 0 {
		// A health requeue replays a request and so changes the call
		// pattern; it is a timing event, not a wrapper effect.
		t.Skipf("%d health requeue(s) during the run; call counts are not comparable", requeued)
	}
	calls := map[transport.MsgType]int64{}
	// Pings are idle-lane health probes paced by wall-clock time, so
	// only the request-driven kinds must match.
	for k := transport.MsgUpload; k <= transport.MsgStatsOK; k++ {
		calls[k] = st.tel.Calls(k)
	}
	return tokens, calls, st
}

// TestWrappersChangeNothing runs one seed untraced and traced on every
// topology: both must give identical tokens and identical per-kind RPC
// counts, which holds only if the wrappers forward ExecCtx, PingCtx and
// ResidentKeys and change no code path.
func TestWrappersChangeNothing(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"rag_prefix", "phase_split", "sharded"} {
		t.Run(name, func(t *testing.T) {
			w, err := sp.workload(name)
			if err != nil {
				t.Fatal(err)
			}
			const n = 4
			plainTok, plainCalls, _ := sequentialRun(t, w, false, n)
			tracedTok, tracedCalls, st := sequentialRun(t, w, true, n)
			for i := range plainTok {
				if !slices.Equal(plainTok[i], tracedTok[i]) {
					t.Errorf("request %d: tokens %v untraced, %v traced", i, plainTok[i], tracedTok[i])
				}
			}
			for k, c := range plainCalls {
				if tracedCalls[k] != c {
					t.Errorf("%s calls: %d untraced, %d traced", transport.KindName(k), c, tracedCalls[k])
				}
			}
			// The wrappers saw every exec the telemetry counted after setup.
			var execs, prefills, steps int64
			for _, s := range st.tr.take() {
				switch s.Kind {
				case kindExec:
					execs++
				case kindPrefill:
					prefills++
				case kindStep:
					steps++
				}
			}
			if prefills != n || steps == 0 || execs == 0 {
				t.Errorf("traced %d prefills, %d steps, %d execs; want %d prefills and some steps and execs",
					prefills, steps, execs, n)
			}
		})
	}
}

// TestReduceSumsToWall checks the reducer's accounting on a hand-built
// trace: two requests interleaved on one lane, one backend.
func TestReduceSumsToWall(t *testing.T) {
	ms := func(x float64) int64 { return int64(x * 1e6) }
	recA := &record{ID: 1, Phase: phaseOpen, Start: ms(0), End: ms(10)}
	recA.Summary.LatencyMs = 9
	recB := &record{ID: 2, Phase: phaseOpen, Start: ms(1), End: ms(8)}
	recB.Summary.LatencyMs = 6.5
	spans := []span{
		{ID: 10, Req: 1, Kind: kindPrefill, Start: ms(1), End: ms(3)},
		{ID: 11, Parent: 10, Req: 1, Kind: kindExec, Backend: 0, Start: ms(1.5), End: ms(2.5)},
		{ID: 20, Req: 2, Kind: kindPrefill, Start: ms(3), End: ms(4)},
		{ID: 21, Parent: 20, Req: 2, Kind: kindExec, Backend: 0, Start: ms(3.2), End: ms(3.8)},
		{ID: 12, Req: 1, Kind: kindStep, Start: ms(4), End: ms(5)},
		{ID: 13, Parent: 12, Req: 1, Kind: kindExec, Backend: 0, Start: ms(4.1), End: ms(4.9)},
		{ID: 22, Req: 2, Kind: kindStep, Start: ms(5), End: ms(7)},
		{ID: 23, Parent: 22, Req: 2, Kind: kindExec, Backend: 0, Start: ms(5.5), End: ms(6.5)},
		{ID: 14, Req: 1, Kind: kindStep, Start: ms(7), End: ms(8)},
	}
	backend := [][3]int64{
		{ms(1.6), ms(1.7), ms(2.4)}, {ms(3.3), 0, ms(3.7)}, {ms(4.2), ms(4.3), ms(4.8)}, {ms(5.6), ms(5.7), ms(6.4)},
	}
	red := reduce(traceInput{recs: []*record{recA, recB}, spans: spans, backends: [][][3]int64{backend}})
	sum := red.Gateway + red.ServeQueue + red.ServeBatch + red.Runtime + red.Transport + red.Backend + red.Remainder
	if math.Abs(sum-red.Wall) > 1e-9 {
		t.Fatalf("layers sum to %v ms, wall %v ms", sum, red.Wall)
	}
	// Request A: wall 10, gateway 1, queue 0 (lane idle before 1 ms),
	// batch 3 (B's 3-4 and 5-7), strategy 4, endpoint 1.8, backend 1.4.
	// Request B: wall 7, gateway 0.5, queue 2 (A's 1-3), batch 1 (A's 4-5),
	// strategy 3, endpoint 1.6, backend 1.2.
	want := reduction{
		Wall: 8.5, Gateway: 0.75, ServeQueue: 1, ServeBatch: 2,
		Runtime: (4 - 1.8 + 3 - 1.6) / 2, Transport: (1.8 - 1.4 + 1.6 - 1.2) / 2, Backend: (1.4 + 1.2) / 2,
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"wall", red.Wall, want.Wall}, {"gateway", red.Gateway, want.Gateway},
		{"serve queue", red.ServeQueue, want.ServeQueue}, {"serve batch", red.ServeBatch, want.ServeBatch},
		{"runtime", red.Runtime, want.Runtime}, {"transport", red.Transport, want.Transport},
		{"backend", red.Backend, want.Backend},
	} {
		if math.Abs(c.got-c.want) > 1e-5 { // ns rounding of the ms literals
			t.Errorf("%s: %v ms, want %v ms", c.name, c.got, c.want)
		}
	}
	if len(red.ExecUs) != 3 || len(red.ServiceUs) != 4 {
		t.Errorf("%d exec and %d service samples, want 3 and 4", len(red.ExecUs), len(red.ServiceUs))
	}
}

// TestPerLayerNamesMatchSpec keeps the traced run's output and the
// metric list documented in spec.json in step.
func TestPerLayerNamesMatchSpec(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	pr := &phaseRun{lg: &loadgen{}, before: &snapshot{}, after: &snapshot{}}
	got := perLayer(pr).m
	got["obs.tracing_overhead"] = metric{}
	var want []string
	for _, m := range sp.PerLayer {
		want = append(want, m.Name)
		if _, ok := got[m.Name]; !ok {
			t.Errorf("spec.json lists %s; the traced run does not report it", m.Name)
		}
	}
	for name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("the traced run reports %s; spec.json does not list it", name)
		}
	}
}
