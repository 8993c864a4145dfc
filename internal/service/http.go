package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"qymera/internal/obs"
	"qymera/internal/sim"
	"qymera/internal/sqlengine"
)

// routes wires the HTTP API (documented in docs/SERVICE.md).
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// Connection timeouts of the server NewHTTPServer builds. A client must
// finish its request headers within readHeaderTimeout, and an idle
// keep-alive connection is closed after idleTimeout. Bodies and
// responses are not timed: a synchronous simulation may legitimately
// run for minutes, and the body size is capped by maxRequestBytes.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

// NewHTTPServer builds the HTTP server for handler h on addr, with the
// connection timeouts above, so a client that never finishes its
// headers cannot hold a connection open forever.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// errorJSON is every non-2xx body.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQueueFull):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrOverBudget), errors.Is(err, ErrTenantOverBudget):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, sim.ErrMemoryBudget):
		status = http.StatusInsufficientStorage
	case errors.As(err, new(*http.MaxBytesError)):
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorJSON{Error: err.Error()})
}

// TenantHeader names the request header that attributes a job to a
// tenant for quota accounting and fair scheduling; it overrides the
// body's "tenant" field.
const TenantHeader = "X-Qymera-Tenant"

// maxRequestBytes caps a request body. The decoded body is kept in
// memory and written to the job log, so an unbounded upload would cost
// both; larger bodies get HTTP 413.
const maxRequestBytes = 32 << 20

func decodeRequest(w http.ResponseWriter, r *http.Request) (Request, error) {
	start := time.Now()
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("invalid request body: %w", err)
	}
	if h := r.Header.Get(TenantHeader); h != "" {
		req.Tenant = h
	}
	// Traced jobs get a back-dated "decode" span covering the body read.
	req.decodeDur = time.Since(start)
	return req, nil
}

// wantsNDJSON reports whether the client asked for amplitude streaming.
func wantsNDJSON(r *http.Request) bool {
	if q := r.URL.Query().Get("stream"); q != "" {
		return strings.EqualFold(q, "ndjson")
	}
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// handleSimulate is the synchronous path: the request occupies a worker
// slot until it finishes (or the client hangs up, which cancels the
// engine work). Responses are one JSON document, or — with
// ?stream=ndjson or Accept: application/x-ndjson — an NDJSON stream:
// a header line {"num_qubits":…}, one line per nonzero amplitude
// ({"s":…,"r":…,"i":…}, sorted by s), and a final {"stats":{…}} line.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := s.manager.RunSync(r.Context(), req)
	if err != nil {
		writeError(w, err)
		return
	}
	if !wantsNDJSON(r) {
		writeJSON(w, http.StatusOK, resultJSON(res))
		return
	}

	// NDJSON streaming: amplitudes are written (and flushed in chunks)
	// as they are gathered, so a large state never needs a single giant
	// response buffer.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	type header struct {
		NumQubits  int    `json:"num_qubits"`
		Backend    string `json:"backend"`
		Amplitudes int    `json:"amplitudes"`
	}
	enc.Encode(header{NumQubits: res.State.NumQubits(), Backend: res.Stats.Backend, Amplitudes: res.State.Len()})
	for i, a := range stateAmplitudes(res.State) {
		enc.Encode(a)
		if flusher != nil && i%4096 == 4095 {
			flusher.Flush()
		}
	}
	type trailer struct {
		Stats StatsJSON `json:"stats"`
	}
	enc.Encode(trailer{Stats: statsJSON(res.Stats)})
}

// handleSubmit enqueues an asynchronous job.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	j, err := s.manager.Submit(req)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.manager.Snapshot(j, false))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.manager.Jobs()})
}

// handleGetJob reports one job; done jobs embed the result unless
// ?result=0.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.manager.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	includeResult := r.URL.Query().Get("result") != "0"
	writeJSON(w, http.StatusOK, s.manager.Snapshot(j, includeResult))
}

// TraceJSON is the GET /v1/jobs/{id}/trace body (default JSON form;
// ?format=chrome returns Chrome trace_event JSON instead).
type TraceJSON struct {
	JobID  string       `json:"job_id"`
	Status string       `json:"status"`
	Trace  obs.SpanJSON `json:"trace"`
}

// handleJobTrace serves a job's span tree. Works on running jobs too
// (open spans report duration-so-far); 404s when the job is unknown or
// was not traced.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, status, ok := s.manager.JobTrace(id)
	if !ok {
		writeError(w, fmt.Errorf("%w: no trace for job %q (tracing off?)", ErrNotFound, id))
		return
	}
	if strings.EqualFold(r.URL.Query().Get("format"), "chrome") {
		doc, err := obs.ChromeTrace(snap)
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(doc)
		return
	}
	writeJSON(w, http.StatusOK, TraceJSON{JobID: id, Status: string(status), Trace: snap})
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.manager.Cancel(id); err != nil {
		writeError(w, err)
		return
	}
	j, err := s.manager.Job(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, s.manager.Snapshot(j, false))
}

// HealthJSON is the /healthz body.
type HealthJSON struct {
	Status        string   `json:"status"`
	Backends      []string `json:"backends"`
	Workers       int      `json:"workers"`
	UptimeSeconds float64  `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthJSON{
		Status:        "ok",
		Backends:      BackendNames(),
		Workers:       s.manager.cfg.Workers,
		UptimeSeconds: time.Since(s.started).Seconds(),
	})
}

// MetricsJSON is the expvar-style /metrics body.
type MetricsJSON struct {
	QueueDepth     int              `json:"queue_depth"`
	QueueCapacity  int              `json:"queue_capacity"`
	Workers        int              `json:"workers"`
	Jobs           map[string]int64 `json:"jobs"` // by terminal status
	AdmissionWaits int64            `json:"admission_waits"`

	PlanCache sim.PlanCacheStats `json:"plan_cache"`
	// PlanCacheShards breaks the plan-cache counters down per lock
	// shard (empty when caching is disabled) — skew here means one
	// structural family is hammering a single shard's mutex.
	PlanCacheShards []sim.PlanCacheStats `json:"plan_cache_shards,omitempty"`

	Budget struct {
		LimitBytes int64 `json:"limit_bytes"`
		UsedBytes  int64 `json:"used_bytes"`
		PeakBytes  int64 `json:"peak_bytes"`
		// AdmittedBytes is the admission ledger: the sum of running
		// jobs' declared estimates.
		AdmittedBytes int64 `json:"admitted_bytes"`
	} `json:"memory_budget"`

	// Optimizer exposes the engine's cumulative query-optimizer rule
	// counters (process-wide, across every engine instance the service
	// created): plans_optimized, cte_inlined, cte_dead and const_folded.
	Optimizer map[string]int64 `json:"optimizer"`

	// Kernels exposes the engine's cumulative gate-stage kernel-tier
	// counters (process-wide): compiles, cache_hits, executions,
	// fallbacks, and per-reason fallback_<reason> counts.
	Kernels map[string]int64 `json:"kernels"`

	Backends map[string]BackendLatency `json:"backends"`

	// Phases holds latency histograms per job phase: queue, run, total
	// (every job), translate/stages/query/emit (traced SQL-backend
	// jobs), and joblog_fsync (one observation per durable log append).
	Phases map[string]BackendLatency `json:"phases"`

	// Tenants breaks queue/run/quota state down per tenant.
	Tenants map[string]TenantMetrics `json:"tenants"`

	// JobLog reports persistent-job-log state: whether durability is
	// on, how many records this process appended, and what the last
	// restart replayed (including corrupt tail records skipped).
	JobLog JobLogMetrics `json:"job_log"`
}

// TenantMetrics is one tenant's scheduling and quota state on the wire.
type TenantMetrics struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	// AdmittedBytes is the sum of this tenant's running jobs' declared
	// estimates (bounded by Config.TenantMaxBytes when set).
	AdmittedBytes int64 `json:"admitted_bytes"`
	// Jobs counts this tenant's finished jobs by terminal status.
	Jobs map[string]int64 `json:"jobs,omitempty"`
	// Latency summarizes this tenant's terminal-job run latencies
	// (all terminal statuses, failures included).
	Latency BackendLatency `json:"latency"`
}

// JobLogMetrics is the persistent job log's state on the wire.
type JobLogMetrics struct {
	Enabled bool `json:"enabled"`
	// AppendedRecords counts records written by this process.
	AppendedRecords int64 `json:"appended_records"`
	// Replay summarizes what the last restart recovered.
	Replay ReplayStats `json:"replay"`
}

// Metrics snapshots the service counters (the /metrics body).
func (s *Server) Metrics() MetricsJSON {
	m := s.manager
	statuses, backends, tenantJobs, tenantLat, phases := m.metrics.snapshot()
	out := MetricsJSON{
		QueueCapacity:   m.cfg.QueueDepth,
		Workers:         m.cfg.Workers,
		Jobs:            statuses,
		AdmissionWaits:  m.metrics.admissionWaits.Load(),
		PlanCache:       m.PlanCacheStats(),
		PlanCacheShards: m.PlanCacheShardStats(),
		Optimizer:       sqlengine.OptimizerCounters(),
		Kernels:         sqlengine.KernelCounters(),
		Backends:        backends,
		Phases:          phases,
		Tenants:         map[string]TenantMetrics{},
	}
	out.Budget.LimitBytes = m.budget.Limit()
	out.Budget.UsedBytes = m.budget.Used()
	out.Budget.PeakBytes = m.budget.Peak()
	out.JobLog.Replay = m.replay

	m.mu.Lock()
	out.QueueDepth = m.queuedTotal
	out.Budget.AdmittedBytes = m.admitted
	for name, ts := range m.tenants {
		out.Tenants[name] = TenantMetrics{
			Queued:        len(ts.queue),
			Running:       ts.running,
			AdmittedBytes: ts.admitted,
			Jobs:          tenantJobs[name],
			Latency:       tenantLat[name],
		}
	}
	if m.log != nil {
		out.JobLog.Enabled = true
		out.JobLog.AppendedRecords = m.log.Appended()
	}
	m.mu.Unlock()
	// Tenants only seen in finished-job counters (e.g. evicted queues).
	for name, jobs := range tenantJobs {
		if _, ok := out.Tenants[name]; !ok {
			out.Tenants[name] = TenantMetrics{Jobs: jobs, Latency: tenantLat[name]}
		}
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}
