// Command gatewaybench is the repository's serving benchmark. It
// deploys the real stack — serve.NewEngine behind serve.NewHandler,
// with backends in separate OS processes over loopback TCP — replays
// seeded traffic against the handler in-process, checks every output
// token against the local reference, and prints the end-to-end metrics
// (or, with --trace 1, the per-layer metrics) as the last line of
// standard output.
//
// Usage (from the repository root):
//
//	bash gatewaybench/run.sh --workload chat --seed 1 --seconds 20 --trace 0
//	bash gatewaybench/run.sh --workload all --seed 1 --trace 1
//
// gatewaybench/spec.json defines every workload and documents the
// deployment and the per-layer metrics; the binary embeds it. The last
// line carries the metrics BENCHMARK.json, read from the working
// directory, lists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/debug"
)

func main() {
	if os.Getenv(envRole) == "backend" {
		os.Exit(runBackend())
	}
	os.Exit(run(os.Args[1:]))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

func run(args []string) int {
	fs := flag.NewFlagSet("gatewaybench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name from spec.json, or all")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 20, "measured seconds per run, split into rounds of an open then a closed segment")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	last, err := resultNames(*trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatewaybench:", err)
		return 1
	}
	names := []string{*name}
	if *name == "all" {
		names = nil
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	}
	status := 0
	for _, n := range names {
		w, err := sp.workload(n)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gatewaybench:", err)
			return 2
		}
		o := options{workload: n, seed: *seed, seconds: *seconds, trace: *trace == 1}
		var res *result
		if o.trace {
			res, err = runTraced(w, o)
		} else {
			res, err = runTimed(w, o)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gatewaybench: %s: %v\n", n, err)
			return 1
		}
		if err := res.print(os.Stdout, last); err != nil {
			fmt.Fprintln(os.Stderr, "gatewaybench:", err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(os.Stderr, "gatewaybench: %s: %d token mismatch(es) against the local reference\n",
				n, res.mismatches)
			status = 1
		}
	}
	return status
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the last stdout line is its summary; the
// line before it is the full record, with every metric the run
// computed.
type result struct {
	Correct    bool
	Attempted  int
	Failed     int
	record     map[string]any
	mismatches int
}

// resultNames returns the metrics BENCHMARK.json lists for the last
// output line: its end_to_end metrics, or for a traced run its
// per_layer ones.
func resultNames(trace bool) ([]string, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := b.EndToEnd
	if trace {
		list = b.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

// print writes the record line, then the summary line with the named
// metrics.
func (r *result) print(f io.Writer, names []string) error {
	all, _ := r.record["metrics"].(map[string]metric)
	picked := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := all[n]
		if !ok {
			return fmt.Errorf("BENCHMARK.json lists %s, which this run does not compute", n)
		}
		picked[n] = m
	}
	rec, err := json.Marshal(r.record)
	if err != nil {
		return err
	}
	last, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": picked,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n%s\n", rec, last)
	return err
}

// stamp identifies the code and machine behind a record.
func stamp(o options) map[string]any {
	// A build outside a git work tree carries no revision.
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"commit": commit, "nproc": goruntime.NumCPU(), "gomaxprocs": goruntime.GOMAXPROCS(0),
		"go_version": goruntime.Version(),
	}
}
