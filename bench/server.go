package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"wsndse/internal/service"
)

// server is one running wsn-serve child process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has been reaped
	err  error         // exit status, valid after done
}

// serverArgs are w's wsn-serve flags; a family workload's durable
// directories live under dir, fresh for every server.
func serverArgs(w *workload, dir string) []string {
	args := []string{"-addr", "127.0.0.1:0", "-jobs", "2"}
	if w.family {
		args = append(args, "-family", "all",
			"-results-dir", filepath.Join(dir, "results"),
			"-checkpoint-dir", filepath.Join(dir, "checkpoints"),
			"-obs-dir", filepath.Join(dir, "obs"))
	}
	return args
}

// startServer launches wsn-serve with its log in dir and returns once GET
// /v1/scenarios first answers 200 — the moment a user could start
// submitting.
func startServer(ctx context.Context, bin, dir string, args []string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, "server.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	go func() {
		s.err = cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for s.url == "" {
		if err := s.pollWait(ctx, deadline); err != nil {
			return nil, fmt.Errorf("wsn-serve did not report its address: %w (log %s)", err, logPath)
		}
		data, _ := os.ReadFile(logPath)
		if _, rest, ok := strings.Cut(string(data), "listening on "); ok {
			if line, _, ok := strings.Cut(rest, "\n"); ok {
				s.url = strings.TrimSpace(line)
			}
		}
	}
	ready := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := ready.Get(s.url + "/v1/scenarios")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ready.CloseIdleConnections()
				return s, nil
			}
		}
		if err := s.pollWait(ctx, deadline); err != nil {
			return nil, fmt.Errorf("wsn-serve never answered /v1/scenarios: %w", err)
		}
	}
}

// pollWait sleeps one polling tick, failing if the process died, the
// deadline passed or ctx ended. A failure kills the process.
func (s *server) pollWait(ctx context.Context, deadline time.Time) error {
	var err error
	select {
	case <-s.done:
		return fmt.Errorf("exited: %v", s.err)
	case <-ctx.Done():
		err = ctx.Err()
	case <-time.After(time.Millisecond):
		if time.Now().After(deadline) {
			err = errors.New("timed out")
		}
	}
	if err != nil {
		s.kill()
	}
	return err
}

// stop drains the server with SIGTERM (killing it after 20 s) and waits
// until the process has ended.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		s.kill()
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// scrape fetches /metrics and sums each sample family over its labels.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// newClient returns a client whose failures are counted, not retried
// away, over at most two connections.
func newClient(url string) *service.Client {
	return &service.Client{
		BaseURL:    url,
		MaxRetries: -1,
		HTTPClient: &http.Client{Transport: countingTransport{&http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
		}}},
	}
}

// byteCountKey carries a *int64 in a request context; countingTransport
// adds the response body's size to it.
type byteCountKey struct{}

type countingTransport struct{ base *http.Transport }

// CloseIdleConnections lets http.Client.CloseIdleConnections reach the
// pooled connections.
func (t countingTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(req)
	if n, ok := req.Context().Value(byteCountKey{}).(*int64); ok && err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}
