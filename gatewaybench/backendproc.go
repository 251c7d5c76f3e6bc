package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"genie/internal/backend"
	"genie/internal/device"
	"genie/internal/transport"
)

// The benchmark binary re-executes itself as a backend: a separate OS
// process with its own heap and GC, as a network-attached accelerator
// has. The role and tracing switch travel in the environment so the
// test binary can take the same role from TestMain.
const (
	envRole  = "GATEWAYBENCH_ROLE"
	envTrace = "GATEWAYBENCH_TRACE"
)

// backendReport is what a backend process sends back for the traced
// window between "mark" and "report".
type backendReport struct {
	// Spans are [read start, exec hook (0 when none), write end] in
	// Unix nanoseconds, one per request served.
	Spans      [][3]int64 `json:"spans"`
	GPUBusyNs  int64      `json:"gpu_busy_ns"`
	ExecCalls  int64      `json:"exec_calls"`
	AllocBytes uint64     `json:"alloc_bytes"`
}

// runBackend is the backend role: a genie-server equivalent (A100
// model, wire features offered, nothing negotiated unless the client
// asks) serving through Server.Listen. It prints its address, then obeys
// line commands on stdin: "mark" starts a traced window, "report"
// prints that window's backendReport as one JSON line. EOF on stdin
// drains the server and exits.
func runBackend() int {
	log.SetPrefix("gatewaybench backend: ")
	traced := os.Getenv(envTrace) == "1"
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Print(err)
		return 1
	}
	srv := backend.NewServer(device.A100)
	rec := &spanRecorder{}
	if traced {
		srv.SetExecHook(func(int64) error {
			rec.execStart.Store(time.Now().UnixNano())
			return nil
		})
		l = timingListener{Listener: l, rec: rec}
	}
	served := make(chan error, 1)
	go func() { served <- srv.Listen(l) }()
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "addr %s\n", l.Addr())
	if err := out.Flush(); err != nil {
		log.Print(err)
		return 1
	}

	var base struct {
		st    *transport.Stats
		alloc uint64
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		switch in.Text() {
		case "mark":
			rec.reset()
			base.st = srv.Stats()
			base.alloc = totalAlloc()
			fmt.Fprintln(out, "ok")
		case "report":
			st := srv.Stats()
			rep := backendReport{Spans: rec.take()}
			if base.st != nil {
				rep.GPUBusyNs = st.GPUBusyNs - base.st.GPUBusyNs
				rep.ExecCalls = st.ExecCalls - base.st.ExecCalls
				rep.AllocBytes = totalAlloc() - base.alloc
			}
			if err := json.NewEncoder(out).Encode(rep); err != nil {
				log.Print(err)
				return 1
			}
		default:
			log.Printf("unknown command %q", in.Text())
			return 1
		}
		if err := out.Flush(); err != nil {
			log.Print(err)
			return 1
		}
	}
	_ = l.Close()
	srv.Drain()
	if err := <-served; err != nil {
		log.Print(err)
		return 1
	}
	return 0
}

func totalAlloc() uint64 {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	return m.TotalAlloc
}

// timingListener hands backend.Server.Listen connections that time
// every request.
type timingListener struct {
	net.Listener
	rec *spanRecorder
}

func (l timingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timingConn{Conn: c, rec: l.rec}, nil
}

// spanRecorder collects the traced window's request spans.
type spanRecorder struct {
	execStart atomic.Int64
	mu        sync.Mutex
	spans     [][3]int64
}

func (r *spanRecorder) add(s [3]int64) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *spanRecorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *spanRecorder) take() [][3]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans = nil
	if out == nil {
		out = [][3]int64{}
	}
	return out
}

// timingConn times each request on a server-side connection: from the
// first byte read after the previous reply to the end of the reply's
// write. The protocol has one call outstanding per connection, so
// reads and writes alternate per request.
type timingConn struct {
	net.Conn
	rec   *spanRecorder
	start int64
	inReq bool
}

func (c *timingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.inReq {
		c.inReq = true
		c.start = time.Now().UnixNano()
		c.rec.execStart.Store(0)
	}
	return n, err
}

func (c *timingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.inReq {
		c.inReq = false
		c.rec.add([3]int64{c.start, c.rec.execStart.Swap(0), time.Now().UnixNano()})
	}
	return n, err
}

// backendProc is the gateway process's handle on one backend process.
type backendProc struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
	// peakRSSKB is the process's peak RSS, known after stop.
	peakRSSKB int64
}

// startBackend launches this binary in the backend role and waits for
// its listening address.
func startBackend(traced bool) (*backendProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(self)
	trace := "0"
	if traced {
		trace = "1"
	}
	// One P per backend: a backend models one accelerator's execution
	// stream, and the gateway process and both backends share this machine.
	cmd.Env = append(os.Environ(), envRole+"=backend", envTrace+"="+trace, "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start backend: %w", err)
	}
	p := &backendProc{cmd: cmd, in: in, out: bufio.NewReaderSize(outPipe, 1<<20)}
	line, err := p.out.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "addr ") {
		p.kill()
		return nil, fmt.Errorf("backend did not report its address: %q %v", line, err)
	}
	p.addr = strings.TrimSpace(strings.TrimPrefix(line, "addr "))
	return p, nil
}

func (p *backendProc) command(cmd string) (string, error) {
	if _, err := io.WriteString(p.in, cmd+"\n"); err != nil {
		return "", fmt.Errorf("backend %s: %w", cmd, err)
	}
	line, err := p.out.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("backend %s: %w", cmd, err)
	}
	return line, nil
}

func (p *backendProc) mark() error {
	_, err := p.command("mark")
	return err
}

func (p *backendProc) report() (*backendReport, error) {
	line, err := p.command("report")
	if err != nil {
		return nil, err
	}
	var rep backendReport
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return nil, fmt.Errorf("backend report: %w", err)
	}
	return &rep, nil
}

// stop reads the backend's peak RSS, closes the control pipe (the
// backend drains and exits) and waits; a backend that does not exit in
// time is killed.
func (p *backendProc) stop() error {
	var rssErr error
	p.peakRSSKB, rssErr = peakRSSKB(strconv.Itoa(p.cmd.Process.Pid))
	_ = p.in.Close()
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		err = fmt.Errorf("backend did not exit; killed: %v", <-done)
	}
	if err == nil {
		err = rssErr
	}
	return err
}

// peakRSSKB is a process's peak resident set (VmHWM) in KiB. The peak
// getrusage reports for a child will not do: a child the Go runtime
// starts by vfork inherits its parent's peak at exec.
func peakRSSKB(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

func (p *backendProc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}
