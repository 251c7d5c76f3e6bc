package serve

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genie/internal/health"
	"genie/internal/models"
	"genie/internal/runtime"
	"genie/internal/transport"
)

// TestLaneTripIgnoresRemoteErrors: BreakerThreshold consecutive counted
// failures quarantine a fresh lane at once — three calls, not the
// scorer's eight-sample evidence gate — for BreakerCooldown, while an
// application-level remote error proves the backend alive and resets
// the count.
func TestLaneTripIgnoresRemoteErrors(t *testing.T) {
	e, b0, b1, _ := healthTestEngine(t)
	defer b0.stop()
	defer b1.stop()
	l := e.lanes[0]
	remote := &transport.RemoteError{Msg: "backend: no such key"}
	for _, err := range []error{io.EOF, io.EOF, remote, io.EOF, io.EOF} {
		l.observe(time.Millisecond, err)
	}
	if st := l.tracker.State(); st != health.Healthy {
		t.Fatalf("lane tripped by failures interleaved with a remote error: %v", st)
	}
	l.observe(time.Millisecond, io.EOF)
	if st := l.tracker.State(); st != health.Quarantined {
		t.Fatalf("state after 3 consecutive failures = %v, want Quarantined", st)
	}
	// The trip's dwell is BreakerCooldown (1s), not the scorer's 2s.
	if w := l.tracker.Wake(false); w <= 500*time.Millisecond || w > time.Second {
		t.Fatalf("trip dwell remaining = %v, want just under 1s", w)
	}
	if e.lanes[0].admissible() {
		t.Fatal("tripped lane still admits")
	}
}

// TestLaneSlowerThanPoolMembersStaysHealthy: a serve lane fronting a
// sharded pool times whole prefills and decode steps, its pool members
// single segments. With the lane at 3× its members' latency in the same
// health set, the lane is judged only against serve lanes (here: none)
// and stays Healthy.
func TestLaneSlowerThanPoolMembersStaysHealthy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := newServedBackend(models.NewGPT(rng, models.TinyGPT), nil)
	defer b.stop()
	clk := NewFakeClock()
	hs := health.NewSet(health.Config{Now: clk.Now})
	e, err := NewEngine(Config{Mode: runtime.ModeSemAware, Clock: clk, Health: hs},
		[]Backend{{Name: "pool", Runner: b.runner}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		hs.Endpoint("pool-members", "m0").Observe(200*time.Microsecond, nil)
		hs.Endpoint("pool-members", "m1").Observe(200*time.Microsecond, nil)
	}
	for i := 0; i < 40; i++ {
		e.lanes[0].observe(600*time.Microsecond, nil)
	}
	bh := e.Stats().Backends["pool"]
	if bh.Health != "healthy" || bh.Score != 1 || !e.lanes[0].admissible() {
		t.Fatalf("lane at 3x its pool members' segment latency = %+v, want healthy with score 1", bh)
	}
}

// TestOneTrialPerDwellUnderRace hammers a tripped lane with concurrent
// submitters and /stats readers (run under -race). While its backend
// stays dead, each dwell admits exactly one trial request. Once the
// backend is repaired, the lane runs one trial at a time until its
// success streak reinstates it, and only then fills its batch.
func TestOneTrialPerDwellUnderRace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b0 := newServedBackend(models.NewGPT(rng, models.TinyGPT), nil)
	defer b0.stop()
	want := refTokens(t, unitPrompt, 4)

	clk := NewFakeClock()
	hs := health.NewSet(health.Config{Now: clk.Now, ReinstateStreak: 3})
	e, err := NewEngine(Config{
		Mode:             runtime.ModeSemAware,
		Clock:            clk,
		Health:           hs,
		HealthOpFloor:    time.Minute, // no adaptive deadline fires mid-test
		RetryBudget:      -1,          // a failed trial sheds at once
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
	}, []Backend{{Name: "b0", Runner: b0.runner}})
	if err != nil {
		t.Fatal(err)
	}
	var dead atomic.Bool
	dead.Store(true)
	b0.srv.SetExecHook(func(int64) error {
		if dead.Load() {
			return errors.New("injected backend crash")
		}
		return nil
	})
	e.Start()
	defer e.Stop()

	l := e.lanes[0]
	var mu sync.Mutex
	trials := map[int]bool{} // requests that emitted a token while Reinstating
	const callers = 16
	results := make([]*Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Submit(context.Background(), Request{
				Tenant: "a", Prompt: unitPrompt, MaxTokens: 4,
				OnToken: func(Token) {
					// Runs on the lane goroutine.
					if l.tracker.State() == health.Reinstating {
						mu.Lock()
						trials[i] = true
						mu.Unlock()
					}
				},
			})
			if err == nil {
				results[i] = res
			}
		}(i)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Stats()
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	defer func() {
		close(stop)
		readers.Wait()
	}()

	waitFor := func(what string, cond func(Stats) bool) Stats {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := e.Stats()
			if cond(st) {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, st)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The first request trips the lane; every dwell then admits exactly
	// one trial, which fails and re-quarantines the lane.
	for round := int64(1); round <= 3; round++ {
		if round > 1 {
			clk.Advance(time.Minute + time.Second)
			e.nudge()
		}
		waitFor("a shed trial", func(st Stats) bool {
			return st.Unavailable == round && st.Queued == callers-int(round)
		})
		time.Sleep(20 * time.Millisecond)
		if st := e.Stats(); st.Unavailable != round || st.Queued != callers-int(round) {
			t.Fatalf("round %d: unavailable=%d queued=%d, want %d/%d (one trial per dwell)",
				round, st.Unavailable, st.Queued, round, callers-int(round))
		}
	}

	// Repair: the next trial runs alone until the streak reinstates the
	// lane, then the rest of the queue drains through the batch.
	dead.Store(false)
	clk.Advance(time.Minute + time.Second)
	e.nudge()
	wg.Wait()
	st := e.Stats()
	if st.Completed != callers-3 || st.Unavailable != 3 {
		t.Fatalf("completed=%d unavailable=%d, want %d/3", st.Completed, st.Unavailable, callers-3)
	}
	if bh := st.Backends["b0"]; bh.Health != "healthy" {
		t.Fatalf("b0 = %+v after a successful trial, want healthy", bh)
	}
	mu.Lock()
	n := len(trials)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("%d requests ran while the lane was Reinstating, want exactly 1", n)
	}
	for i, res := range results {
		if res == nil {
			continue
		}
		for j := range want {
			if res.Tokens[j] != want[j] {
				t.Fatalf("request %d tokens %v, want %v", i, res.Tokens, want)
			}
		}
	}
}
