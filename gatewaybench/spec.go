package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"time"
)

//go:embed spec.json
var specJSON []byte

// benchSpec is the part of spec.json the binary runs from: each
// workload's topology, traffic and load. The rest of the file documents
// the deployment, the per-layer metrics and the observations.
type benchSpec struct {
	Workloads []workload    `json:"workloads"`
	PerLayer  []layerMetric `json:"per_layer"`
}

// Topologies a workload can deploy.
const (
	topoColocated = "colocated"
	topoSplit     = "split"
	topoPool      = "pool"
)

type workload struct {
	Name     string  `json:"name"`
	Topology string  `json:"topology"`
	Lanes    int     `json:"lanes"`
	Traffic  traffic `json:"traffic"`
	OpenRate float64 `json:"open_rate_per_s"`
	TTFTTail float64 `json:"ttft_tail"`
	ITLTail  float64 `json:"itl_tail"`
}

// closedClients keeps every decode slot full: lanes × batch.
func (w *workload) closedClients() int { return w.Lanes * batchSize }

// traffic describes how a workload's requests are drawn.
type traffic struct {
	Kind      string  `json:"kind"` // "unshared" or "shared_prefix"
	PromptMin int     `json:"prompt_min"`
	PromptMax int     `json:"prompt_max"`
	Prefixes  int     `json:"prefixes"`
	PrefixLen int     `json:"prefix_len"`
	SuffixLen int     `json:"suffix_len"`
	ZipfS     float64 `json:"zipf_s"`
	OutMin    int     `json:"out_min"`
	OutMax    int     `json:"out_max"`
}

type layerMetric struct {
	Name string `json:"name"`
}

func loadSpec() (*benchSpec, error) {
	var s benchSpec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) workload(name string) (*workload, error) {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rng is a splitmix64 stream: request k of a phase is drawn from its own
// stream keyed by (seed, phase, k), so any request can be regenerated
// without replaying the ones before it.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng {
	r := &rng{s: 0x6a09e667f3bcc908}
	for _, p := range parts {
		r.s ^= p
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int         { return int(r.next() % uint64(n)) }
func (r *rng) between(lo, hi int) int { return lo + r.intn(hi-lo+1) }
func (r *rng) float() float64         { return float64(r.next()>>11) / (1 << 53) }

// genRequest is one generated request: the prompt and how many tokens
// to generate.
type genRequest struct {
	Prompt    []int64
	MaxTokens int
}

// Phase streams. Each phase draws its requests from its own stream.
const (
	streamPrefix = iota + 1
	streamWarmup
	streamOpen
	streamClosed
	streamArrivals
)

// trafficGen draws a workload's requests for one seed.
type trafficGen struct {
	t        traffic
	seed     uint64
	vocab    int
	prefixes [][]int64
	zipfCDF  []float64
}

func newTrafficGen(t traffic, seed int64, vocab int) *trafficGen {
	g := &trafficGen{t: t, seed: uint64(seed), vocab: vocab}
	if t.Kind == "shared_prefix" {
		for j := 0; j < t.Prefixes; j++ {
			r := newRNG(g.seed, streamPrefix, uint64(j))
			g.prefixes = append(g.prefixes, g.tokens(r, t.PrefixLen))
		}
		// Zipf(s) over prefix ranks; s = 0 is uniform.
		var sum float64
		for j := 1; j <= t.Prefixes; j++ {
			sum += 1 / math.Pow(float64(j), t.ZipfS)
			g.zipfCDF = append(g.zipfCDF, sum)
		}
		for j := range g.zipfCDF {
			g.zipfCDF[j] /= sum
		}
	}
	return g
}

func (g *trafficGen) tokens(r *rng, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.intn(g.vocab))
	}
	return out
}

// request returns request k of a phase stream.
func (g *trafficGen) request(stream, k int) genRequest {
	r := newRNG(g.seed, uint64(stream), uint64(k))
	var prompt []int64
	switch g.t.Kind {
	case "shared_prefix":
		u := r.float()
		j := 0
		for j < len(g.zipfCDF)-1 && u > g.zipfCDF[j] {
			j++
		}
		prompt = append(append([]int64(nil), g.prefixes[j]...), g.tokens(r, g.t.SuffixLen)...)
	default:
		prompt = g.tokens(r, r.between(g.t.PromptMin, g.t.PromptMax))
	}
	return genRequest{Prompt: prompt, MaxTokens: r.between(g.t.OutMin, g.t.OutMax)}
}

// arrivals returns Poisson arrival offsets at rate per second over d
// for one round of the open phase.
func (g *trafficGen) arrivals(rate float64, d time.Duration, round int) []time.Duration {
	r := newRNG(g.seed, streamArrivals, uint64(round))
	var out []time.Duration
	var t float64
	for {
		t += -math.Log(1-r.float()) / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}
