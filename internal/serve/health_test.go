package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"genie/internal/health"
	"genie/internal/metrics"
	"genie/internal/models"
	"genie/internal/runtime"
)

// healthTestEngine builds a two-lane engine with the fail-slow scorer
// wired, returning the engine, the two backends, and the scorer.
func healthTestEngine(t *testing.T) (*Engine, *servedBackend, *servedBackend, *health.Set) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	gpt := models.NewGPT(rng, models.TinyGPT)
	b0 := newServedBackend(gpt, nil)
	b1 := newServedBackend(gpt, nil)
	hs := health.NewSet(health.Config{})
	e, err := NewEngine(Config{
		Mode:          runtime.ModeSemAware,
		Health:        hs,
		HealthOpFloor: 2 * time.Second, // generous: these tests quarantine by hand, not by deadline
		RetryBudget:   1,
	}, []Backend{
		{Name: "b0", Runner: b0.runner},
		{Name: "b1", Runner: b1.runner},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, b0, b1, hs
}

// sicken feeds tracker samples until it reaches want (or gives up).
func sicken(t *testing.T, tr *health.Tracker, d time.Duration, want health.State) {
	t.Helper()
	for i := 0; i < 100 && tr.State() != want; i++ {
		tr.Observe(d, nil)
	}
	if tr.State() != want {
		t.Fatalf("tracker stuck at %v, want %v", tr.State(), want)
	}
}

// TestQuarantinedLaneDrainsWithoutStateLoss: a request decoding on a
// lane that goes Quarantined mid-generation re-queues through the
// failover path and completes on the healthy lane with bit-identical
// tokens — and without burning the client's backend-loss retry budget
// (quarantine is the engine's decision, not the backend's failure).
func TestQuarantinedLaneDrainsWithoutStateLoss(t *testing.T) {
	snap := metrics.SnapGoroutines()
	e, b0, b1, hs := healthTestEngine(t)
	want := refTokens(t, unitPrompt, 6)

	// Establish the baseline: b1 fast, then request lands on b0.
	for i := 0; i < 10; i++ {
		hs.Endpoint(healthPeers, "b1").Observe(time.Millisecond, nil)
	}
	var emitted []int
	ar, err := e.enqueue(context.Background(), Request{
		Tenant: "alice", Prompt: unitPrompt, MaxTokens: 6,
		OnToken: func(tok Token) { emitted = append(emitted, tok.Index) },
	})
	if err != nil {
		t.Fatal(err)
	}
	e.lanes[0].iterate() // prefill + one decode step on b0
	if isDone(ar) {
		t.Fatal("request finished before the fault window")
	}

	// b0 browns out: 50× the baseline quarantines it.
	sicken(t, hs.Endpoint(healthPeers, "b0"), 50*time.Millisecond, health.Quarantined)

	// The next step boundary drains b0's batch back to the queue.
	if !e.lanes[0].iterate() {
		t.Fatal("quarantined lane reported no work for its drain")
	}
	if n := e.lanes[0].activeN.Load(); n != 0 {
		t.Fatalf("quarantined lane still holds %d active requests", n)
	}
	if st := e.Stats(); st.Queued != 1 || st.Requeued != 1 {
		t.Fatalf("after drain: queued=%d requeued=%d, want 1/1", st.Queued, st.Requeued)
	}
	// And it must not re-admit its own drained request.
	if e.lanes[0].admit() {
		t.Fatal("quarantined lane re-admitted work")
	}

	// The healthy lane finishes it; the stream is bit-identical with no
	// index delivered twice.
	for i := 0; i < 50 && !isDone(ar); i++ {
		e.lanes[1].iterate()
	}
	if !isDone(ar) || ar.err != nil {
		t.Fatalf("request did not recover: done=%v err=%v", isDone(ar), ar.err)
	}
	if ar.res.Backend != "b1" {
		t.Errorf("finished on %q, want b1", ar.res.Backend)
	}
	for i := range want {
		if ar.res.Tokens[i] != want[i] {
			t.Fatalf("tokens %v after quarantine drain, want %v", ar.res.Tokens, want)
		}
	}
	for i, idx := range emitted {
		if idx != i {
			t.Fatalf("token event order %v, want each index once", emitted)
		}
	}
	st := e.Stats()
	if st.Unavailable != 0 || st.Failed != 0 {
		t.Errorf("unavailable=%d failed=%d, want 0/0 (drain must not burn retry budget)",
			st.Unavailable, st.Failed)
	}
	if bh := st.Backends["b0"]; bh.Health != "quarantined" || bh.Healthy || bh.Score != 0 {
		t.Errorf("b0 = %+v, want quarantined/unhealthy/score 0", bh)
	}
	if bh := st.Backends["b1"]; bh.Health != "healthy" || !bh.Healthy {
		t.Errorf("b1 = %+v, want healthy", bh)
	}
	if eh, ok := st.Health["b0"]; !ok || !eh.Quarantined {
		t.Errorf("stats health block missing quarantined b0: %+v", st.Health)
	}

	b0.stop()
	b1.stop()
	snap.Check(t)
}

// TestSuspectLaneYieldsToHealthy: a Suspect lane leaves queued work for
// healthy lanes with batch room, but still serves as overflow when the
// healthy capacity is saturated.
func TestSuspectLaneYieldsToHealthy(t *testing.T) {
	e, b0, b1, hs := healthTestEngine(t)
	defer b0.stop()
	defer b1.stop()

	for i := 0; i < 10; i++ {
		hs.Endpoint(healthPeers, "b1").Observe(time.Millisecond, nil)
	}
	// 4× the baseline: Suspect, not Quarantined.
	sicken(t, hs.Endpoint(healthPeers, "b0"), 4*time.Millisecond, health.Suspect)

	ar, err := e.enqueue(context.Background(), Request{Tenant: "a", Prompt: unitPrompt, MaxTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The suspect lane must not take it while b1 is healthy with room.
	if e.lanes[0].admit() {
		t.Fatal("suspect lane admitted work despite healthy room elsewhere")
	}
	if st := e.Stats(); st.Queued != 1 {
		t.Fatalf("queued = %d after suspect refusal, want 1", st.Queued)
	}
	for i := 0; i < 50 && !isDone(ar); i++ {
		e.lanes[1].iterate()
	}
	if !isDone(ar) || ar.err != nil {
		t.Fatalf("healthy lane did not serve: %v", ar.err)
	}
	if ar.res.Backend != "b1" {
		t.Errorf("served by %q, want healthy b1", ar.res.Backend)
	}

	// Saturate b1 (its tracker stops being Healthy): the suspect lane
	// becomes admissible again as overflow.
	sicken(t, hs.Endpoint(healthPeers, "b1"), 50*time.Millisecond, health.Quarantined)
	ar2, err := e.enqueue(context.Background(), Request{Tenant: "a", Prompt: unitPrompt, MaxTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50 && !isDone(ar2); i++ {
		e.lanes[0].iterate()
	}
	if !isDone(ar2) || ar2.err != nil {
		t.Fatalf("suspect lane did not serve overflow: %v", ar2.err)
	}
	if ar2.res.Backend != "b0" {
		t.Errorf("overflow served by %q, want suspect b0", ar2.res.Backend)
	}
}

// TestHealthzDegradedReportsQuarantine: with one lane quarantined and
// one healthy, /healthz returns 503 with per-lane JSON detail so an
// external balancer can rotate the gateway out of the hot path.
func TestHealthzDegradedReportsQuarantine(t *testing.T) {
	e, b0, b1, hs := healthTestEngine(t)
	defer b0.stop()
	defer b1.stop()
	ts := httptest.NewServer(NewHandler(e))
	defer ts.Close()

	// Fully healthy: 200.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d on healthy engine, want 200", resp.StatusCode)
	}

	for i := 0; i < 10; i++ {
		hs.Endpoint(healthPeers, "b1").Observe(time.Millisecond, nil)
	}
	sicken(t, hs.Endpoint(healthPeers, "b0"), 50*time.Millisecond, health.Quarantined)

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d with a quarantined lane, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("degraded /healthz missing Retry-After")
	}
	var hr HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" {
		t.Errorf("status = %q, want degraded", hr.Status)
	}
	if len(hr.Quarantined) != 1 || hr.Quarantined[0] != "b0" {
		t.Errorf("quarantined = %v, want [b0]", hr.Quarantined)
	}
	if lh := hr.Lanes["b0"]; lh.Health != "quarantined" {
		t.Errorf("lane detail b0 = %+v, want quarantined", lh)
	}
	if lh := hr.Lanes["b1"]; lh.Health != "healthy" || !lh.Healthy {
		t.Errorf("lane detail b1 = %+v, want healthy", lh)
	}
}
