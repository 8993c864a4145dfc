package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"qymera"
)

// buildDir holds everything building and running leave behind: the
// qymerad binary, its data directories and the engine's spill files.
// It sits in the working directory, which the root .gitignore covers.
const buildDir = ".bench_build"

// server is one running qymerad process.
type server struct {
	cmd     *exec.Cmd
	base    string
	dataDir string
	exited  chan struct{}
}

// buildServer compiles cmd/qymerad from the sources in the working
// directory. An up-to-date binary makes this a cache check.
func buildServer(ctx context.Context) (string, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "qymerad"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-buildvcs=false", "-o", bin, "./cmd/qymerad")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/qymerad: %w\n%s", err, out)
	}
	return bin, nil
}

// startServer runs qymerad the way ISSUE 11 fixes it — two workers, a
// durable job log, every other flag at its default — and returns once
// /healthz answers.
func startServer(ctx context.Context, bin string) (*server, error) {
	// Reserve a free loopback port, then hand it to the child.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	dataDir, err := os.MkdirTemp(buildDir, "data-")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-workers", "2", "-data-dir", dataDir)
	logf, err := os.Create(filepath.Join(dataDir, "qymerad.log"))
	if err == nil {
		cmd.Stdout, cmd.Stderr = logf, logf
		err = cmd.Start()
		logf.Close() // the child holds its own descriptor
	}
	if err != nil {
		os.RemoveAll(dataDir)
		return nil, fmt.Errorf("start qymerad: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, dataDir: dataDir, exited: make(chan struct{})}
	go func() {
		cmd.Wait() // the exit status of a server we stop ourselves says nothing
		close(s.exited)
	}()

	cl := qymera.NewClient(s.base)
	deadline := time.Now().Add(15 * time.Second)
	for {
		hctx, cancel := context.WithTimeout(ctx, time.Second)
		_, err := cl.Health(hctx)
		cancel()
		if err == nil {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("qymerad exited during start-up: %s", s.stopAndLog())
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("qymerad never answered /healthz: %v: %s", err, s.stopAndLog())
		}
	}
}

// stop ends the process — SIGTERM first, so the server shuts down the
// way an operator's stop would — waits until it has exited, and
// removes its data directory.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) // an error means it has exited already
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	os.RemoveAll(s.dataDir)
}

// stopAndLog stops the server and returns what it logged.
func (s *server) stopAndLog() string {
	out, _ := os.ReadFile(filepath.Join(s.dataDir, "qymerad.log")) // best effort: the log only decorates an error
	s.stop()
	return string(out)
}

// countingTransport counts the request and response body bytes of the
// calls it carries, so the harness sees wire sizes without a change to
// qymera.Client.
type countingTransport struct {
	next      *http.Transport
	sent, got atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		t.sent.Add(r.ContentLength)
	}
	resp, err := t.next.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.got}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// newClient returns a client with a connection pool of its own, so two
// clients are two connections.
func newClient(base string) (*qymera.Client, *countingTransport) {
	ct := &countingTransport{next: &http.Transport{MaxIdleConnsPerHost: 1}}
	cl := qymera.NewClient(base)
	cl.HTTPClient = &http.Client{Transport: ct}
	return cl, ct
}
