package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"genie/internal/serve"
)

// Phases of one run.
const (
	phaseWarmup = iota
	phaseOpen
	phaseClosed
)

// record is one request as the load generator saw it. Times are Unix
// ns.
type record struct {
	ID     int64
	Phase  int
	Round  int
	Stream int
	Index  int
	Req    genRequest
	// Due is when the request was scheduled (open phase) or issued
	// (closed phases); Start/End bracket the handler call.
	Due, Start, End int64
	// Lines are the token lines' write times; Tokens their ids.
	Lines   []int64
	Tokens  []int64
	Summary serve.GenerateResponse
	// Err is why the request failed; empty when it succeeded. Bad marks
	// a failure that is a wrong output (a malformed stream or a token
	// mismatch) rather than a refused or aborted request.
	Err string
	Bad bool
}

func (r *record) ok() bool { return r.Err == "" }

// streamRecorder is the in-process http.ResponseWriter: it stamps each
// write, which the handler issues once per NDJSON line, and parses the
// lines only after the handler returns.
type streamRecorder struct {
	hdr   http.Header
	code  int
	buf   bytes.Buffer
	times []int64
}

func (w *streamRecorder) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}

func (w *streamRecorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *streamRecorder) Write(p []byte) (int, error) {
	w.times = append(w.times, time.Now().UnixNano())
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(p)
}

func (w *streamRecorder) Flush() {}

// loadgen drives one stack's handler.
type loadgen struct {
	st     *stack
	gen    *trafficGen
	nextID atomic.Int64
	mu     sync.Mutex
	recs   []*record
}

// prepare builds request index of a phase stream for send.
func (lg *loadgen) prepare(phase, round, stream, index int) (*record, *http.Request) {
	rec := &record{
		ID: lg.nextID.Add(1), Phase: phase, Round: round, Stream: stream, Index: index,
		Req: lg.gen.request(stream, index),
	}
	body, err := json.Marshal(serve.GenerateRequest{
		Tenant: "bench", Prompt: rec.Req.Prompt, MaxTokens: rec.Req.MaxTokens, Stream: true,
	})
	if err != nil {
		rec.Err = err.Error()
		return rec, nil
	}
	ctx := withReq(context.Background(), rec.ID)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/generate", bytes.NewReader(body))
	if err != nil {
		rec.Err = err.Error()
		return rec, nil
	}
	return rec, hr
}

// send calls the handler with a prepared request and checks the
// stream's shape: status 200, token lines numbered 0..n-1, a summary
// without an error whose tokens equal the streamed ones, n ==
// max_tokens. A request without a due time is due when sent.
func (lg *loadgen) send(rec *record, hr *http.Request) *record {
	if hr == nil {
		return lg.keep(rec)
	}
	w := &streamRecorder{}
	rec.Start = time.Now().UnixNano()
	if rec.Due == 0 {
		rec.Due = rec.Start
	}
	lg.st.handler.ServeHTTP(w, hr)
	rec.End = time.Now().UnixNano()
	rec.Err, rec.Bad = parseStream(rec, w)
	return lg.keep(rec)
}

// do sends request index of a phase stream now.
func (lg *loadgen) do(phase, round, stream, index int) *record {
	return lg.send(lg.prepare(phase, round, stream, index))
}

func (lg *loadgen) keep(rec *record) *record {
	lg.mu.Lock()
	lg.recs = append(lg.recs, rec)
	lg.mu.Unlock()
	return rec
}

// parseStream checks the response; it returns why the request failed
// (empty when it succeeded) and whether the failure is a wrong output.
func parseStream(rec *record, w *streamRecorder) (string, bool) {
	if w.code != http.StatusOK {
		return fmt.Sprintf("status %d: %s", w.code, bytes.TrimSpace(w.buf.Bytes())), false
	}
	lines := bytes.Split(bytes.TrimSuffix(w.buf.Bytes(), []byte("\n")), []byte("\n"))
	if len(lines) != len(w.times) || len(lines) == 0 {
		return fmt.Sprintf("%d lines in %d writes", len(lines), len(w.times)), true
	}
	last := len(lines) - 1
	if err := json.Unmarshal(lines[last], &rec.Summary); err != nil {
		return fmt.Sprintf("summary: %v", err), true
	}
	for i, l := range lines[:last] {
		var ev serve.StreamEvent
		if err := json.Unmarshal(l, &ev); err != nil {
			return fmt.Sprintf("token line %d: %v", i, err), true
		}
		if ev.Index != i {
			return fmt.Sprintf("token line %d has index %d", i, ev.Index), true
		}
		rec.Tokens = append(rec.Tokens, ev.Token)
	}
	rec.Lines = w.times[:last]
	if rec.Summary.Error != "" {
		return "summary error: " + rec.Summary.Error, false
	}
	if !slices.Equal(rec.Tokens, rec.Summary.Tokens) {
		return "streamed tokens differ from the summary", true
	}
	if len(rec.Tokens) != rec.Req.MaxTokens {
		return fmt.Sprintf("%d tokens, want %d", len(rec.Tokens), rec.Req.MaxTokens), true
	}
	return "", false
}

// closed runs clients back-to-back callers for d, each sending its next
// request as soon as the previous one completes, then waits for the
// requests in flight. next numbers the stream's requests across calls.
// It returns the window [start, end).
func (lg *loadgen) closed(phase, round, stream, clients int, d time.Duration, next *atomic.Int64) [2]int64 {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lg.do(phase, round, stream, int(next.Add(1)-1))
			}
		}()
	}
	wg.Wait()
	return [2]int64{start.UnixNano(), deadline.UnixNano()}
}

// spinMargin is how long before a due time the open phase's
// dispatcher stops sleeping and polls the clock instead. A timer
// usually fires a few hundred microseconds late; a wider margin buys
// little, as the rarer late wake-ups run to milliseconds, and each
// poll takes a CPU from the stack under test.
const spinMargin = 500 * time.Microsecond

// open sends requests at the given arrival offsets regardless of how
// the stack keeps up, each timed from its due time, then waits for the
// requests in flight. One dispatcher builds each request ahead of time,
// sleeps until spinMargin before it is due, then polls the clock and
// hands it to a new goroutine when the time comes, so a slow request
// delays none after it. Requests are numbered from first. It returns
// each request's lateness (handler call minus due time) in ns.
func (lg *loadgen) open(round, stream, first int, arrivals []time.Duration) []int64 {
	start := time.Now().Add(10 * time.Millisecond)
	late := make([]int64, len(arrivals))
	var wg sync.WaitGroup
	for i, off := range arrivals {
		due := start.Add(off)
		rec, hr := lg.prepare(phaseOpen, round, stream, first+i)
		rec.Due = due.UnixNano()
		time.Sleep(time.Until(due) - spinMargin)
		// A busy wait: a goroutine that yields here queues behind the
		// stack's and falls late.
		for time.Now().Before(due) {
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg.send(rec, hr)
			late[i] = rec.Start - rec.Due
		}()
	}
	wg.Wait()
	return late
}
