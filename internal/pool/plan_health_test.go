package pool

import (
	"errors"
	"testing"
	"time"

	"genie/internal/device"
	"genie/internal/health"
	"genie/internal/srg"
	"genie/internal/tensor"
	"genie/internal/transport"
)

// TestPlanPrefersHealthyMembers: with both members able to hold the
// whole model, first-fit packing must land every layer on the healthy
// one when the other is quarantined — regardless of offered order.
func TestPlanPrefersHealthyMembers(t *testing.T) {
	m := testGPT()
	cands := []Candidate{
		{Name: "sick", Spec: device.A100, Link: testLink, Quarantined: true},
		{Name: "ok", Spec: device.A100, Link: testLink, HealthScore: 0.9},
	}
	p, err := BuildPlan(m, cands, StrategyMemory, 1)
	if err != nil {
		t.Fatal(err)
	}
	if members := p.Members(); len(members) != 1 || members[0] != "ok" {
		t.Fatalf("placement uses %v, want all layers on the healthy member", members)
	}

	// A quarantined-only pool still plans: better a sick member than none.
	only := []Candidate{{Name: "sick", Spec: device.A100, Link: testLink, Quarantined: true}}
	if _, err := BuildPlan(m, only, StrategyMemory, 1); err != nil {
		t.Fatalf("quarantined-only pool must stay feasible: %v", err)
	}
}

// TestPlanEstimateFoldsHealth: the cost model must charge a degraded
// member 1/score on its kernel time, with the divisor floored so
// estimates stay finite.
func TestPlanEstimateFoldsHealth(t *testing.T) {
	m := testGPT()
	one := func(score float64, quarantined bool) time.Duration {
		p, err := BuildPlan(m, []Candidate{{
			Name: "a", Spec: device.A100, Link: testLink,
			HealthScore: score, Quarantined: quarantined,
		}}, StrategyMemory, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p.Estimate
	}
	healthy := one(0, false)
	halved := one(0.5, false)
	floored := one(0.000001, false)
	quarantined := one(0, true)
	if halved <= healthy {
		t.Errorf("score 0.5 estimate %v not above healthy %v", halved, healthy)
	}
	// Kernel time doubles; link terms don't, so the ratio is in (1, 2].
	if halved > 2*healthy {
		t.Errorf("score 0.5 estimate %v more than doubled healthy %v", halved, healthy)
	}
	if want := one(minPlanScore, false); floored != want {
		t.Errorf("near-zero score estimate %v, want floored-at-%v value %v", floored, minPlanScore, want)
	}
	if quarantined != floored {
		t.Errorf("quarantined estimate %v != floored estimate %v", quarantined, floored)
	}
}

// TestManagerCandidatesCarryHealth: a Manager wired with a health set
// surfaces member scores to the planner and the status document.
func TestManagerCandidatesCarryHealth(t *testing.T) {
	hs := health.NewSet(health.Config{})
	mgr, err := NewManager(Config{Model: testGPT(), Health: hs})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := newPoolBackend(nil), newPoolBackend(nil)
	defer pa.stop()
	defer pb.stop()
	if err := mgr.Join("a", pa.ep, device.A100, testLink); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Join("b", pb.ep, device.A100, testLink); err != nil {
		t.Fatal(err)
	}

	// Brown out "a": fast baseline on b, 50× samples on a.
	for i := 0; i < 10; i++ {
		hs.Endpoint(healthPeers, "b").Observe(time.Millisecond, nil)
	}
	for i := 0; i < 100 && hs.Endpoint(healthPeers, "a").State() != health.Quarantined; i++ {
		hs.Endpoint(healthPeers, "a").Observe(50*time.Millisecond, nil)
	}
	if hs.Endpoint(healthPeers, "a").State() != health.Quarantined {
		t.Fatal("could not quarantine member a")
	}

	var sawSick, sawOK bool
	for _, c := range mgr.candidates("") {
		switch c.Name {
		case "a":
			sawSick = true
			if !c.Quarantined {
				t.Error("candidate a not marked quarantined")
			}
		case "b":
			sawOK = true
			if c.Quarantined || c.HealthScore <= 0 {
				t.Errorf("candidate b = %+v, want healthy with a positive score", c)
			}
		}
	}
	if !sawSick || !sawOK {
		t.Fatal("candidates missing a member")
	}
	for _, ms := range mgr.Status().Members {
		if ms.Name == "a" && ms.Health != "quarantined" {
			t.Errorf("status for a = %+v, want quarantined", ms)
		}
		if ms.Name == "b" && ms.Health != "healthy" {
			t.Errorf("status for b = %+v, want healthy", ms)
		}
	}
}

// TestMemberRemoteErrorsKeepHealth: a member that answers with
// application-level RemoteErrors is alive and fast; its segment execs
// must not count as failures, so its health state and score hold.
func TestMemberRemoteErrorsKeepHealth(t *testing.T) {
	hs := health.NewSet(health.Config{})
	mgr, err := NewManager(Config{Model: testGPT(), Health: hs})
	if err != nil {
		t.Fatal(err)
	}
	pa := newPoolBackend(nil)
	defer pa.stop()
	if err := mgr.Join("a", pa.ep, device.A100, testLink); err != nil {
		t.Fatal(err)
	}
	pa.srv.SetExecHook(func(int64) error { return errors.New("injected rejection") })
	for i := 0; i < 20; i++ {
		_, err := mgr.execOn("a", reluExec())
		if !transport.IsRemote(err) {
			t.Fatalf("exec %d: err = %v, want a RemoteError", i, err)
		}
	}
	tr := hs.Endpoint(healthPeers, "a")
	if st, sc := tr.State(), tr.Score(); st != health.Healthy || sc != 1 {
		t.Fatalf("member after remote errors: state %v score %v, want Healthy and 1", st, sc)
	}
}

// reluExec is a minimal one-op exec request.
func reluExec() *transport.Exec {
	g := srg.New("remote-error-test")
	in := g.MustAdd(&srg.Node{Op: "input", Ref: "x", Output: srg.TensorMeta{Shape: []int{2}}})
	out := g.MustAdd(&srg.Node{Op: "relu", Inputs: []srg.NodeID{in}, Output: srg.TensorMeta{Shape: []int{2}}})
	return &transport.Exec{
		Graph: g,
		Binds: []transport.Binding{{Ref: "x", Inline: tensor.FromF32(tensor.Shape{2}, []float32{-1, 2})}},
		Want:  []srg.NodeID{out},
	}
}
