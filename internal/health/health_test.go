package health

import (
	"context"
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"genie/internal/obs"
	"genie/internal/transport"
)

// fakeClock is a manually-advanced clock for deterministic dwell tests.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func testSet(clk *fakeClock, over func(*Config)) *Set {
	cfg := Config{Now: clk.now}
	if over != nil {
		over(&cfg)
	}
	return NewSet(cfg)
}

// errLost is a counted failure: the conn to the endpoint is gone.
var errLost = io.EOF

// lanes is the peer group most tests register their trackers in.
const lanes = "lanes"

// feed pushes n identical samples, each a counted failure when failed.
func feed(t *Tracker, n int, d time.Duration, failed bool) {
	var err error
	if failed {
		err = errLost
	}
	for i := 0; i < n; i++ {
		t.Observe(d, err)
	}
}

func TestHealthyBaseline(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	a := s.Endpoint(lanes, "a")
	b := s.Endpoint(lanes, "b")
	feed(a, 20, time.Millisecond, false)
	feed(b, 20, time.Millisecond, false)
	if st := a.State(); st != Healthy {
		t.Fatalf("a state = %v, want Healthy", st)
	}
	if sc := a.Score(); sc < 0.99 {
		t.Fatalf("a score = %v, want ~1", sc)
	}
	if s.Endpoint(lanes, "a") != a {
		t.Fatal("Endpoint not idempotent")
	}
}

func TestSlowLaneGraduatesToQuarantine(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	a := s.Endpoint(lanes, "a")
	b := s.Endpoint(lanes, "b")
	feed(a, 20, time.Millisecond, false)
	// b starts equally fast, then browns out mildly (4×): that lands in
	// the suspect band and stays there.
	feed(b, 20, time.Millisecond, false)
	for i := 0; i < 40 && b.State() != Suspect; i++ {
		b.Observe(4*time.Millisecond, nil)
	}
	if st := b.State(); st != Suspect {
		t.Fatalf("b state = %v after 4x slowdown, want Suspect", st)
	}
	// Then severely (50×): one sample is enough to cross the quarantine
	// ratio once the EWMA folds it in.
	for i := 0; i < 40 && b.State() != Quarantined; i++ {
		b.Observe(50*time.Millisecond, nil)
	}
	if st := b.State(); st != Quarantined {
		t.Fatalf("b state = %v, want Quarantined", st)
	}
	if sc := b.Score(); sc != 0 {
		t.Fatalf("quarantined score = %v, want 0", sc)
	}
	if st := a.State(); st != Healthy {
		t.Fatalf("healthy peer state = %v, want Healthy", st)
	}
}

func TestErrorRateQuarantines(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	a := s.Endpoint(lanes, "a")
	feed(s.Endpoint(lanes, "b"), 20, time.Millisecond, false)
	feed(a, 10, time.Millisecond, false)
	for i := 0; i < 40 && a.State() != Quarantined; i++ {
		a.Observe(time.Millisecond, errLost)
	}
	if st := a.State(); st != Quarantined {
		t.Fatalf("a state = %v, want Quarantined (errEwma path)", st)
	}
}

func TestQuarantineDwellAndReinstate(t *testing.T) {
	clk := newFakeClock()
	s := testSet(clk, func(c *Config) {
		c.Cooldown = time.Second
		c.ReinstateStreak = 3
	})
	a := s.Endpoint(lanes, "a")
	feed(s.Endpoint(lanes, "b"), 20, time.Millisecond, false)
	feed(a, 20, time.Millisecond, false)
	for i := 0; i < 60 && a.State() != Quarantined; i++ {
		a.Observe(100*time.Millisecond, nil)
	}
	if a.State() != Quarantined {
		t.Fatal("setup: a should be Quarantined")
	}
	// Dwell not elapsed: still quarantined.
	clk.advance(500 * time.Millisecond)
	if st := a.State(); st != Quarantined {
		t.Fatalf("state = %v before dwell elapsed, want Quarantined", st)
	}
	clk.advance(600 * time.Millisecond)
	if st := a.State(); st != Reinstating {
		t.Fatalf("state = %v after dwell, want Reinstating", st)
	}
	// Two successes: still on trial. Third: healthy, with the sick-era
	// EWMA forgotten so the next judged call doesn't re-quarantine.
	a.Observe(time.Millisecond, nil)
	a.Observe(time.Millisecond, nil)
	if st := a.State(); st != Reinstating {
		t.Fatalf("state = %v mid-streak, want Reinstating", st)
	}
	a.Observe(time.Millisecond, nil)
	if st := a.State(); st != Healthy {
		t.Fatalf("state = %v after streak, want Healthy", st)
	}
	feed(a, 10, time.Millisecond, false)
	if st := a.State(); st != Healthy {
		t.Fatalf("state = %v after recovery traffic, want Healthy (stale EWMA leaked)", st)
	}
}

func TestReinstateFailureRequarantines(t *testing.T) {
	clk := newFakeClock()
	s := testSet(clk, func(c *Config) { c.Cooldown = time.Second })
	a := s.Endpoint(lanes, "a")
	feed(s.Endpoint(lanes, "b"), 20, time.Millisecond, false)
	feed(a, 20, time.Millisecond, false)
	for i := 0; i < 60 && a.State() != Quarantined; i++ {
		a.Observe(100*time.Millisecond, nil)
	}
	clk.advance(2 * time.Second)
	if a.State() != Reinstating {
		t.Fatal("setup: a should be Reinstating")
	}
	a.Observe(time.Millisecond, errLost)
	if st := a.State(); st != Quarantined {
		t.Fatalf("state = %v after trial failure, want Quarantined", st)
	}
}

func TestHealthiestRanking(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	a := s.Endpoint(lanes, "a")
	b := s.Endpoint(lanes, "b")
	feed(a, 20, time.Millisecond, false)
	feed(b, 20, 10*time.Millisecond, false)
	ranked := s.Healthiest([]string{"b", "a", "c"})
	if ranked[0] != "a" {
		t.Fatalf("ranked = %v, want a first (fastest)", ranked)
	}
	// c is unknown: score 1, ties with a at the top by name order after a.
	if ranked[len(ranked)-1] != "b" {
		t.Fatalf("ranked = %v, want b last (slowest)", ranked)
	}
}

func TestProbePacing(t *testing.T) {
	clk := newFakeClock()
	s := testSet(clk, func(c *Config) { c.ProbeInterval = 100 * time.Millisecond })
	a := s.Endpoint(lanes, "a")
	// A fresh tracker is not immediately due: probing at first sight
	// would block a new lane in a ping exactly when traffic arrives.
	if a.ProbeDue() {
		t.Fatal("fresh tracker should wait a full interval before probing")
	}
	clk.advance(150 * time.Millisecond)
	if !a.ProbeDue() {
		t.Fatal("first probe should be due after an idle interval")
	}
	if a.ProbeDue() {
		t.Fatal("second probe immediately after should not be due")
	}
	if w := a.Wake(true); w <= 0 || w > 100*time.Millisecond {
		t.Fatalf("Wake(probing) = %v, want (0, 100ms]", w)
	}
	if w := a.Wake(false); w != 0 {
		t.Fatalf("Wake without probing or quarantine = %v, want 0", w)
	}
	clk.advance(150 * time.Millisecond)
	if !a.ProbeDue() {
		t.Fatal("probe should be due after the interval")
	}
	a.ObserveProbe(nil)
	if got := a.snapshot().Probes; got != 1 {
		t.Fatalf("probe count = %d, want 1", got)
	}
}

func TestDeadlines(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	a := s.Endpoint(lanes, "a")
	// No baseline yet: hedge uses the floor, op deadline passes the cap
	// through.
	if d := s.HedgeDeadline(lanes, 5*time.Millisecond); d != 5*time.Millisecond {
		t.Fatalf("HedgeDeadline floor = %v, want 5ms", d)
	}
	if d := s.OpDeadline(lanes, time.Millisecond, time.Second); d != time.Second {
		t.Fatalf("OpDeadline without samples = %v, want cap", d)
	}
	feed(a, 20, time.Millisecond, false)
	// Baseline 1ms, HedgeFactor 4 → 4ms (floor 1ms).
	if d := s.HedgeDeadline(lanes, time.Millisecond); d < 3*time.Millisecond || d > 6*time.Millisecond {
		t.Fatalf("HedgeDeadline = %v, want ~4ms", d)
	}
	// Healthy max 1ms × DeadlineFactor 4 = 4ms, floored at 2ms, capped 1s.
	if d := s.OpDeadline(lanes, 2*time.Millisecond, time.Second); d < 2*time.Millisecond || d > 8*time.Millisecond {
		t.Fatalf("OpDeadline = %v, want ~4ms", d)
	}
	if d := s.OpDeadline(lanes, 2*time.Millisecond, 3*time.Millisecond); d != 3*time.Millisecond {
		t.Fatalf("OpDeadline cap = %v, want 3ms", d)
	}
}

func TestSnapshot(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	feed(s.Endpoint(lanes, "a"), 10, 2*time.Millisecond, false)
	snap := s.Snapshot()
	eh, ok := snap["a"]
	if !ok {
		t.Fatal("snapshot missing endpoint a")
	}
	if eh.State != "healthy" || eh.Samples != 10 || eh.P50 != 2*time.Millisecond {
		t.Fatalf("snapshot = %+v", eh)
	}
	if eh.Quarantined {
		t.Fatal("healthy endpoint marked quarantined")
	}
}

// TestPeerGroupsJudgeLikeWithLike: a tracker is scored only against the
// peers it registered with. A serve lane timing whole ops at 3× the
// latency of pool members timing single segments stays Healthy with
// score 1, and each group's deadlines derive from its own members.
func TestPeerGroupsJudgeLikeWithLike(t *testing.T) {
	s := testSet(newFakeClock(), nil)
	feed(s.Endpoint("pool", "m0"), 20, 200*time.Microsecond, false)
	feed(s.Endpoint("pool", "m1"), 20, 200*time.Microsecond, false)
	lane := s.Endpoint("serve", "pool-lane")
	feed(lane, 40, 600*time.Microsecond, false)
	if st := lane.State(); st != Healthy {
		t.Fatalf("serve lane at 3x its pool members' latency = %v, want Healthy", st)
	}
	if sc := lane.Score(); sc != 1 {
		t.Fatalf("lone serve lane score = %v, want 1", sc)
	}
	if d := s.HedgeDeadline("serve", 0); d != 4*600*time.Microsecond {
		t.Fatalf("serve HedgeDeadline = %v, want 4 x the serve EWMA", d)
	}
	if d := s.HedgeDeadline("pool", 0); d != 4*200*time.Microsecond {
		t.Fatalf("pool HedgeDeadline = %v, want 4 x the pool EWMA", d)
	}
	if d := s.OpDeadline("serve", 0, time.Second); d != 4*600*time.Microsecond {
		t.Fatalf("serve OpDeadline = %v, want 4 x the serve worst case", d)
	}

	// A lone member is never latency-judged, even on a 100x outlier...
	feed(lane, 1, 60*time.Millisecond, false)
	if st := lane.State(); st != Healthy {
		t.Fatalf("lone lane after an outlier = %v, want Healthy", st)
	}
	// ...but its error rate still applies.
	for i := 0; i < 40 && lane.State() != Quarantined; i++ {
		lane.Observe(600*time.Microsecond, errLost)
	}
	if st := lane.State(); st != Quarantined {
		t.Fatalf("lone lane failing every op = %v, want Quarantined", st)
	}
	// Pool members are untouched by the lane's fate.
	if st := s.Endpoint("pool", "m0").State(); st != Healthy {
		t.Fatalf("pool member = %v, want Healthy", st)
	}
}

// TestQuarantineTripLifecycle walks the fail-stop path with a fake
// clock: a fresh tracker (no samples, so no scorer verdict is possible)
// trips at once, dwells for the trip's own dwell rather than Cooldown,
// goes back for that same dwell when its reinstatement trial fails, and
// rejoins after a success streak. The obs series follow along.
func TestQuarantineTripLifecycle(t *testing.T) {
	clk := newFakeClock()
	reg := obs.NewRegistry()
	s := testSet(clk, func(c *Config) {
		c.Cooldown = time.Minute
		c.ReinstateStreak = 2
		c.Metrics = reg
	})
	a := s.Endpoint(lanes, "a")
	a.Quarantine(time.Second)
	if st := a.State(); st != Quarantined {
		t.Fatalf("state after trip = %v, want Quarantined", st)
	}
	if sc := a.Score(); sc != 0 {
		t.Fatalf("tripped score = %v, want 0", sc)
	}
	if w := a.Wake(false); w != time.Second {
		t.Fatalf("Wake while quarantined = %v, want the 1s dwell", w)
	}
	// A quarantined tracker ignores outcomes, so it is not probed: a
	// probing caller sleeps out the dwell too.
	clk.advance(500 * time.Millisecond)
	if a.ProbeDue() {
		t.Fatal("a quarantined tracker claimed a probe")
	}
	if w := a.Wake(true); w != 500*time.Millisecond {
		t.Fatalf("Wake(probing) while quarantined = %v, want the 500ms left of the dwell", w)
	}

	clk.advance(600 * time.Millisecond)
	if st := a.State(); st != Reinstating {
		t.Fatalf("state after dwell = %v, want Reinstating", st)
	}
	if !a.ProbeDue() {
		t.Fatal("no probe due once the dwell ended")
	}
	// The trial fails: back to quarantine for the trip's dwell, not
	// the one-minute Cooldown.
	a.Observe(time.Millisecond, errLost)
	if st := a.State(); st != Quarantined {
		t.Fatalf("state after failed trial = %v, want Quarantined", st)
	}
	clk.advance(1100 * time.Millisecond)
	if st := a.State(); st != Reinstating {
		t.Fatalf("state one trip dwell after the failed trial = %v, want Reinstating", st)
	}
	a.Observe(time.Millisecond, nil)
	a.Observe(time.Millisecond, nil)
	if st := a.State(); st != Healthy {
		t.Fatalf("state after success streak = %v, want Healthy", st)
	}

	if v := reg.Counter("genie_health_transitions_total", "", "endpoint", "a", "to", "quarantined").Value(); v != 2 {
		t.Errorf("quarantine transitions = %d, want 2", v)
	}
	if v := reg.Gauge("genie_health_state", "", "endpoint", "a").Value(); v != int64(Healthy) {
		t.Errorf("state gauge = %d, want healthy", v)
	}
}

// TestQuarantinedIgnoresLateOutcomes: outcomes of operations admitted
// before a trip arrive while the tracker is Quarantined. A late success
// must not reinstate it and a late failure must not extend its dwell;
// a repeated trip keeps the dwell it has.
func TestQuarantinedIgnoresLateOutcomes(t *testing.T) {
	clk := newFakeClock()
	s := testSet(clk, nil)
	a := s.Endpoint(lanes, "a")
	a.Quarantine(time.Second)

	feed(a, 10, time.Millisecond, false)
	if st := a.State(); st != Quarantined {
		t.Fatalf("late successes moved a quarantined tracker to %v", st)
	}
	if n := a.snapshot().Samples; n != 0 {
		t.Fatalf("quarantined tracker folded %d late samples, want 0", n)
	}
	clk.advance(600 * time.Millisecond)
	a.Observe(time.Millisecond, errLost)
	a.Quarantine(time.Minute)
	clk.advance(500 * time.Millisecond)
	if st := a.State(); st != Reinstating {
		t.Fatalf("state at the original dwell's end = %v, want Reinstating (dwell extended)", st)
	}
}

// TestFailureClassification: one rule decides what counts against an
// endpoint. Availability failures, state loss and protocol violations
// count; an application-level remote error proves the endpoint alive,
// and caller-side cancellation says nothing about it.
func TestFailureClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{io.EOF, true},
		{context.DeadlineExceeded, true},
		{fmt.Errorf("exec: %w", context.Canceled), false},
		{&transport.RemoteError{Msg: "backend: no such key"}, false},
		{&transport.RemoteError{Msg: "stale handle x@3"}, true},
		{&transport.FrameError{}, true},
		{errors.New("pool: member departed"), false},
	}
	for _, c := range cases {
		if got := Failure(c.err); got != c.want {
			t.Errorf("Failure(%v) = %v, want %v", c.err, got, c.want)
		}
	}

	// A tracker fed only remote errors keeps its grade and score.
	s := testSet(newFakeClock(), nil)
	feed(s.Endpoint(lanes, "b"), 20, time.Millisecond, false)
	a := s.Endpoint(lanes, "a")
	for i := 0; i < 40; i++ {
		a.Observe(time.Millisecond, &transport.RemoteError{Msg: "backend: no such key"})
	}
	if st, sc := a.State(), a.Score(); st != Healthy || sc != 1 {
		t.Fatalf("after remote errors: state %v score %v, want Healthy and 1", st, sc)
	}
	// A cancelled op is not a sample at all.
	a.Observe(time.Hour, context.Canceled)
	if n := a.snapshot().Samples; n != 40 {
		t.Fatalf("samples = %d after a cancelled op, want 40", n)
	}
}
