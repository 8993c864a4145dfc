// Package service is Qymera's system tier: a production-shaped
// concurrent simulation server over the simulation backends.
//
// The paper's pitch is that an RDBMS makes quantum simulation
// *serviceable* infrastructure; this package supplies the service. It
// stacks three mechanisms on the engine:
//
//   - a job Manager — a bounded worker pool draining per-tenant FIFO
//     queues by deficit round robin (scheduler.go), with per-tenant
//     quotas (max running, max queued, admitted-bytes), per-job status
//     and timing, admission control against the engine's shared memory
//     budget (every per-request engine instance reserves from one
//     *sqlengine.MemBudget), a persistent job log replayed on restart
//     (joblog.go), and engine-level cancellation: cancelling a job
//     aborts its in-flight gate-stage query at its next cancellation
//     poll (once per batch), releasing all its reservations;
//
//   - a plan cache — an LRU over translated SQL programs keyed by
//     circuit fingerprints (sim.PlanCache), shared by every request, so
//     repeated circuits skip translation entirely and parameter sweeps
//     reuse the SQL text, rebinding only the numeric gate tables;
//
//   - an HTTP API (see docs/SERVICE.md) — POST /v1/simulate for
//     synchronous runs (JSON or NDJSON amplitude streaming), POST
//     /v1/jobs + GET /v1/jobs/{id} + DELETE /v1/jobs/{id} for the
//     asynchronous lifecycle, /healthz, and an expvar-style /metrics
//     with queue depth, plan-cache hit counters, memory-budget usage,
//     and per-backend latency.
//
// cmd/qymerad wraps the package in a binary; the qymera facade's
// Client speaks the API from Go.
package service

import (
	"net/http"
	"runtime"
	"time"
)

// Config tunes a Server (zero values give sensible defaults).
type Config struct {
	// Workers is the simulation worker-pool size (default GOMAXPROCS).
	// At most this many simulations run concurrently; further requests
	// queue.
	Workers int
	// QueueDepth bounds the FIFO job queue (default 64). Submissions
	// beyond it fail fast with ErrQueueFull (HTTP 429).
	QueueDepth int
	// MemoryBudget caps the bytes the SQL engine may hold in memory
	// across ALL concurrent jobs (0 = unlimited): every per-request
	// engine instance shares one budget (overflow spills to disk), and
	// admission control holds back jobs while the sum of running jobs'
	// declared estimates would exceed it.
	MemoryBudget int64
	// PlanCacheSize is the LRU capacity of the shared plan cache
	// (default sim.DefaultPlanCacheSize; negative disables caching).
	PlanCacheSize int
	// SpillDir hosts the engine's out-of-core temp files ("" = OS temp
	// dir).
	SpillDir string
	// RetainJobs caps how many finished jobs stay queryable (default
	// 256; the oldest finished jobs are evicted first).
	RetainJobs int
	// DataDir enables the persistent job log: every job lifecycle
	// transition is appended (and fsynced) to DataDir/jobs.qlog, and a
	// restart on the same directory replays it — completed jobs stay
	// queryable with their results, queued/running jobs are re-enqueued
	// and re-executed. Empty disables durability.
	DataDir string
	// TenantMaxRunning caps one tenant's concurrently running jobs; the
	// fair scheduler skips a tenant at its cap (0 = no per-tenant cap).
	TenantMaxRunning int
	// TenantMaxQueued caps one tenant's queued jobs; submissions beyond
	// it fail fast with ErrTenantQueueFull (HTTP 429). 0 = no cap
	// beyond the global QueueDepth.
	TenantMaxQueued int
	// TenantMaxBytes caps the sum of one tenant's running jobs'
	// declared estimates: larger single estimates are rejected with
	// ErrTenantOverBudget (HTTP 422), and jobs that fit the quota but
	// not its current headroom wait in the tenant's queue (0 = no cap).
	TenantMaxBytes int64
	// Tracing sets the server-wide span-tracing default: "" or
	// "sampled" time one operator batch in obs.SampleDefault, "full"
	// times every batch, "off" disables tracing. Each request may
	// override it with options.trace. Amplitudes are bitwise
	// independent of the setting.
	Tracing string
	// SlowQueryMillis, with DataDir set, appends the complete trace of
	// every job whose submit→finish latency reaches the threshold to
	// DataDir/slow_queries.ndjson (0 disables the slow-query log).
	SlowQueryMillis int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 256
	}
	return c
}

// Server bundles the job manager with its HTTP handler.
type Server struct {
	manager *Manager
	mux     *http.ServeMux
	started time.Time
}

// New builds a ready-to-serve simulation service. It panics when
// Config.DataDir is set but unusable; durable deployments should use
// Open. Without a DataDir, New never fails.
func New(cfg Config) *Server {
	s, err := Open(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Open builds a ready-to-serve simulation service, replaying the
// persistent job log first when Config.DataDir is set.
func Open(cfg Config) (*Server, error) {
	m, err := OpenManager(cfg)
	if err != nil {
		return nil, err
	}
	s := &Server{
		manager: m,
		started: time.Now(),
	}
	s.mux = s.routes()
	return s, nil
}

// Manager exposes the job manager (for in-process embedding and tests).
func (s *Server) Manager() *Manager { return s.manager }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the worker pool: queued jobs are cancelled, running
// jobs' contexts are cancelled (stopping engine work at the next batch
// boundary), and all workers are joined.
func (s *Server) Close() { s.manager.Close() }
