package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"qymera/internal/obs"
	"qymera/internal/sim"
	"qymera/internal/sqlengine"
)

// timeNow is stubbed in tests.
var timeNow = time.Now

// JobStatus is one job's lifecycle state.
type JobStatus string

const (
	JobQueued    JobStatus = "queued"
	JobRunning   JobStatus = "running"
	JobDone      JobStatus = "done"
	JobFailed    JobStatus = "failed"
	JobCancelled JobStatus = "cancelled"
)

// terminal reports whether the status is final.
func (s JobStatus) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

var (
	// ErrQueueFull rejects submissions beyond Config.QueueDepth.
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrTenantQueueFull rejects submissions beyond the per-tenant
	// queued-jobs quota (Config.TenantMaxQueued).
	ErrTenantQueueFull = errors.New("service: tenant job queue is full")
	// ErrClosed rejects work after Close.
	ErrClosed = errors.New("service: manager is closed")
	// ErrNotFound marks unknown (or evicted) job ids.
	ErrNotFound = errors.New("service: no such job")
	// ErrOverBudget rejects jobs whose declared estimate can never fit
	// the configured memory budget.
	ErrOverBudget = errors.New("service: estimated_bytes exceeds the server memory budget")
	// ErrTenantOverBudget rejects jobs whose declared estimate can never
	// fit the per-tenant admitted-bytes quota (Config.TenantMaxBytes).
	ErrTenantOverBudget = errors.New("service: estimated_bytes exceeds the tenant memory quota")
)

// Job is one queued or running simulation. All mutable fields are
// guarded by the owning Manager's mutex.
type Job struct {
	ID     string
	req    *parsedRequest // nil only for unparseable replayed jobs
	tenant string

	status JobStatus
	err    error
	result *sim.Result
	// replayed carries a done job's result recovered from the job log
	// (result stays nil for such jobs).
	replayed *ResultJSON

	submitted time.Time
	started   time.Time
	finished  time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// admittedBytes is the admission-ledger reservation this job holds
	// while running (0 until dispatched; released exactly once, by
	// finishJob).
	admittedBytes int64

	// trace is the job's span tree (nil when tracing is off; replayed
	// jobs are never traced). spanQueue covers submit→dispatch and
	// spanRun dispatch→finish; both are ended by the scheduler and
	// finishJob, and the engine hangs its statement spans under
	// spanRun via the job context.
	trace     *obs.Trace
	spanQueue *obs.Span
	spanRun   *obs.Span
}

// Manager owns the worker pool, the per-tenant queues, the shared
// engine budget, the shared plan cache, and (when Config.DataDir is
// set) the persistent job log.
type Manager struct {
	cfg     Config
	budget  *sqlengine.MemBudget
	cache   *sim.PlanCache
	metrics *metrics
	replay  ReplayStats
	// slow is the slow-query log (nil unless Config.DataDir and
	// Config.SlowQueryMillis are both set).
	slow *slowLog

	mu     sync.Mutex
	cond   *sync.Cond // dispatch + Close wakeups
	log    *jobLog    // nil when durability is disabled (and after Close)
	jobs   map[string]*Job
	order  []string // submission order, for finished-job eviction
	nextID int
	closed bool
	// admitted is the shared admission ledger: the sum of running jobs'
	// declared estimates. A job is dispatched only while
	// admitted + estimate <= budget limit, so declared peak memory
	// never oversubscribes the shared engine budget regardless of how
	// actual usage fluctuates mid-query.
	admitted    int64
	queuedTotal int

	// backendFor builds a job's backend: newBackend, or a test's
	// stand-in.
	backendFor func(*parsedRequest) (sim.Backend, error)

	// tenants/ring/rrPos are the fair scheduler's per-tenant queues and
	// round-robin cursor (see scheduler.go).
	tenants map[string]*tenantState
	ring    []*tenantState
	rrPos   int

	wg sync.WaitGroup
}

// NewManager starts the worker pool. It panics when Config.DataDir is
// set but unusable; durable deployments should use OpenManager.
func NewManager(cfg Config) *Manager {
	m, err := OpenManager(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// OpenManager starts the worker pool, replaying the persistent job log
// first when Config.DataDir is set: completed jobs stay queryable
// (done jobs keep their results) and jobs that were queued or running
// when the previous process died are re-enqueued for re-execution.
func OpenManager(cfg Config) (*Manager, error) {
	if _, err := traceSampling(cfg.Tracing); err != nil {
		return nil, fmt.Errorf("service: Config.Tracing: %w", err)
	}
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:     cfg,
		budget:  sqlengine.NewMemBudget(cfg.MemoryBudget),
		metrics: newMetrics(),
		jobs:    map[string]*Job{},
		tenants: map[string]*tenantState{},
	}
	if cfg.PlanCacheSize >= 0 {
		m.cache = sim.NewPlanCache(cfg.PlanCacheSize)
	}
	m.backendFor = m.newBackend
	m.cond = sync.NewCond(&m.mu)
	if cfg.DataDir != "" {
		if err := m.recover(cfg.DataDir); err != nil {
			return nil, err
		}
		if cfg.SlowQueryMillis > 0 {
			slow, err := openSlowLog(cfg.DataDir, time.Duration(cfg.SlowQueryMillis)*time.Millisecond)
			if err != nil {
				m.log.Close()
				return nil, err
			}
			m.slow = slow
		}
	}
	if m.log != nil {
		// Surface job-log fsync latency in /metrics: every durable append
		// is one phase.joblog_fsync observation.
		m.log.observe = func(d time.Duration) { m.metrics.observePhase("joblog_fsync", d) }
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// recover replays the job log and reopens it for appending.
func (m *Manager) recover(dir string) error {
	recs, corrupt, err := replayJobLog(jobLogPath(dir))
	if err != nil {
		return err
	}
	m.replay.Records = len(recs)
	m.replay.CorruptRecords = corrupt

	// Fold the record stream into one final state per job id.
	type folded struct {
		id        string
		tenant    string
		status    JobStatus
		request   json.RawMessage
		result    *ResultJSON
		errText   string
		submitted time.Time
		started   time.Time
		finished  time.Time
	}
	byID := map[string]*folded{}
	var idOrder []string
	for _, rec := range recs {
		f := byID[rec.JobID]
		if f == nil {
			f = &folded{id: rec.JobID, status: JobQueued}
			byID[rec.JobID] = f
			idOrder = append(idOrder, rec.JobID)
		}
		switch rec.Type {
		case "submit":
			f.tenant = rec.Tenant
			f.request = rec.Request
			f.submitted = rec.Time
		case "start":
			f.status = JobRunning
			f.started = rec.Time
		case "done":
			f.status = JobDone
			f.result = rec.Result
			f.finished = rec.Time
		case "fail":
			f.status = JobFailed
			f.errText = rec.Error
			f.finished = rec.Time
		case "cancel":
			f.status = JobCancelled
			f.finished = rec.Time
		}
	}

	for _, id := range idOrder {
		f := byID[id]
		if num, ok := strings.CutPrefix(id, "job-"); ok {
			if v, err := strconv.Atoi(num); err == nil && v > m.nextID {
				m.nextID = v
			}
		}
		var req Request
		var p *parsedRequest
		if json.Unmarshal(f.request, &req) == nil {
			p, _ = parseRequest(req)
		}
		tenant := f.tenant
		if p != nil {
			tenant = p.tenant
		} else if tenant == "" {
			tenant = defaultTenant
		}
		ctx, cancel := context.WithCancel(context.Background())
		j := &Job{
			ID:        id,
			req:       p,
			tenant:    tenant,
			status:    f.status,
			submitted: f.submitted,
			started:   f.started,
			finished:  f.finished,
			ctx:       ctx,
			cancel:    cancel,
			done:      make(chan struct{}),
		}
		switch {
		case f.status.terminal():
			j.replayed = f.result
			if f.errText != "" {
				j.err = errors.New(f.errText)
			} else if f.status == JobCancelled {
				j.err = context.Canceled
			}
			cancel()
			close(j.done)
			m.replay.CompletedKept++
		case p == nil:
			// The logged request no longer parses: surface it as failed
			// rather than dropping the job silently.
			j.status = JobFailed
			j.err = fmt.Errorf("service: replayed job %s has an unreadable request", id)
			j.finished = timeNow()
			cancel()
			close(j.done)
			m.replay.CompletedKept++
		default:
			// Queued or running at the crash: re-enqueue from scratch.
			j.status = JobQueued
			j.started = time.Time{}
			j.finished = time.Time{}
			ts := m.tenantLocked(tenant)
			ts.queue = append(ts.queue, j)
			m.queuedTotal++
			m.replay.Requeued++
		}
		m.jobs[id] = j
		m.order = append(m.order, id)
	}

	log, err := openJobLog(dir)
	if err != nil {
		return err
	}
	m.log = log
	return nil
}

// Budget exposes the shared engine memory budget.
func (m *Manager) Budget() *sqlengine.MemBudget { return m.budget }

// Replay reports what the persistent job log recovered at startup
// (zero value when durability is disabled).
func (m *Manager) Replay() ReplayStats { return m.replay }

// PlanCacheStats snapshots the shared plan cache (zero value when
// caching is disabled).
func (m *Manager) PlanCacheStats() sim.PlanCacheStats {
	if m.cache == nil {
		return sim.PlanCacheStats{}
	}
	return m.cache.Stats()
}

// PlanCacheShardStats snapshots the plan cache per lock shard (nil
// when caching is disabled).
func (m *Manager) PlanCacheShardStats() []sim.PlanCacheStats {
	if m.cache == nil {
		return nil
	}
	return m.cache.ShardStats()
}

// QueueDepth reports how many submitted jobs have not started running.
func (m *Manager) QueueDepth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queuedTotal
}

// traceSampling maps a tracing mode name (Config.Tracing or
// options.trace, case-insensitive) to the trace's sampling stride:
// "full" times every operator batch, "", "on" or "sampled" time one
// batch in obs.SampleDefault, and "off" returns 0 (no trace). Any other
// name is an error naming it.
func traceSampling(mode string) (int, error) {
	switch strings.ToLower(mode) {
	case "", "on", "sampled":
		return obs.SampleDefault, nil
	case "full":
		return obs.SampleFull, nil
	case "off":
		return 0, nil
	}
	return 0, fmt.Errorf("unknown trace mode %q (have on, off, sampled, full)", mode)
}

// newJobTrace builds a job's trace per the server default
// (Config.Tracing) and the request's per-job override
// (options.trace); both were validated by traceSampling before.
func (m *Manager) newJobTrace(id string, p *parsedRequest) *obs.Trace {
	mode := m.cfg.Tracing
	if p != nil && p.options.Trace != "" {
		mode = p.options.Trace
	}
	every, _ := traceSampling(mode)
	if every == 0 {
		return nil
	}
	return obs.NewTrace(id, every)
}

// Submit validates and enqueues a request, returning the queued job.
// Quota breaches fail fast: ErrQueueFull/ErrTenantQueueFull when the
// global or per-tenant queue is full, ErrOverBudget/ErrTenantOverBudget
// when the declared estimate could never fit the shared budget or the
// tenant quota.
func (m *Manager) Submit(req Request) (*Job, error) {
	p, err := parseRequest(req)
	if err != nil {
		return nil, err
	}
	if lim := m.budget.Limit(); lim > 0 && p.estimate > lim {
		return nil, fmt.Errorf("%w: %d > %d", ErrOverBudget, p.estimate, lim)
	}
	if q := m.cfg.TenantMaxBytes; q > 0 && p.estimate > q {
		return nil, fmt.Errorf("%w: %d > %d", ErrTenantOverBudget, p.estimate, q)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	if m.queuedTotal >= m.cfg.QueueDepth {
		m.mu.Unlock()
		return nil, ErrQueueFull
	}
	ts := m.tenantLocked(p.tenant)
	if q := m.cfg.TenantMaxQueued; q > 0 && len(ts.queue) >= q {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q has %d jobs queued", ErrTenantQueueFull, p.tenant, len(ts.queue))
	}
	m.nextID++
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		ID:        fmt.Sprintf("job-%d", m.nextID),
		req:       p,
		tenant:    p.tenant,
		status:    JobQueued,
		submitted: timeNow(),
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
	}
	j.trace = m.newJobTrace(j.ID, p)
	if j.trace != nil {
		// The HTTP layer measured request decoding before Submit; back-date
		// a completed span so the trace covers the whole request.
		if d := req.decodeDur; d > 0 {
			j.trace.Root().CompleteChild("decode", j.submitted.Add(-d), d)
		}
		j.spanQueue = j.trace.Root().Child("queue")
	}
	// Durability first: the job becomes visible (and runnable) only
	// after its submit record is on disk, so a crash can never run a
	// job the log does not know about.
	if m.log != nil {
		raw, err := json.Marshal(req)
		if err == nil {
			err = m.log.Append(logRecord{Type: "submit", JobID: j.ID, Tenant: j.tenant, Time: j.submitted, Request: raw})
		}
		if err != nil {
			m.mu.Unlock()
			cancel()
			return nil, err
		}
	}
	ts.queue = append(ts.queue, j)
	m.queuedTotal++
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.evictFinishedLocked()
	m.mu.Unlock()
	m.cond.Signal()
	return j, nil
}

// evictFinishedLocked drops the oldest finished jobs beyond RetainJobs.
func (m *Manager) evictFinishedLocked() {
	finished := 0
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok && j.status.terminal() {
			finished++
		}
	}
	if finished <= m.cfg.RetainJobs {
		return
	}
	keep := m.order[:0]
	for _, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		if finished > m.cfg.RetainJobs && j.status.terminal() {
			delete(m.jobs, id)
			finished--
			continue
		}
		keep = append(keep, id)
	}
	m.order = keep
}

// worker repeatedly asks the fair scheduler for the next dispatchable
// job and runs it. Dispatch (scheduler.go) already performed admission:
// the queued→running transition and the ledger reservation happen
// atomically under the manager lock, so there is no window in which a
// cancelled job could hold (or leak) a reservation.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		var j *Job
		for {
			if m.closed {
				m.mu.Unlock()
				return
			}
			if j = m.dispatchLocked(); j != nil {
				break
			}
			m.cond.Wait()
		}
		log := m.log
		rec := logRecord{Type: "start", JobID: j.ID, Tenant: j.tenant, Time: j.started}
		m.mu.Unlock()
		if log != nil {
			log.Append(rec)
		}
		m.runJob(j)
	}
}

func (m *Manager) runJob(j *Job) {
	if j.ctx.Err() != nil {
		m.finishJob(j, nil, context.Canceled)
		return
	}
	res, err := m.runBackend(j)
	m.finishJob(j, res, err)
}

// runBackend builds the job's backend and runs its circuit. A panic
// anywhere below becomes the job's error: the job fails, finishJob
// releases its admission bytes, and the worker goroutine — and every
// other tenant's job — carries on.
func (m *Manager) runBackend(j *Job) (res *sim.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("backend panic: %v", r)
		}
	}()
	backend, err := m.backendFor(j.req)
	if err != nil {
		return nil, err
	}
	// The run span rides the job context into the backend and engine:
	// translate/stages/query/emit spans (sim) and per-operator spans
	// (sqlengine) all hang beneath it. spanRun was created by
	// dispatchLocked under the manager lock, which this goroutine
	// acquired since (in worker), so the read is ordered.
	return backend.RunContext(obs.WithSpan(j.ctx, j.spanRun), j.req.circuit)
}

// finishJob records a job's outcome, releases its admission reservation
// exactly once, appends the terminal log record, updates metrics, and
// wakes dispatch waiters. Safe to call from multiple paths: only the
// first caller past the terminal-status guard does any of it.
func (m *Manager) finishJob(j *Job, res *sim.Result, err error) {
	m.mu.Lock()
	if j.status.terminal() {
		m.mu.Unlock()
		return
	}
	ts := m.tenantLocked(j.tenant)
	if j.status == JobRunning {
		ts.running--
	}
	m.admitted -= j.admittedBytes
	ts.admitted -= j.admittedBytes
	j.admittedBytes = 0
	j.finished = timeNow()
	switch {
	case err == nil:
		j.status = JobDone
		j.result = res
	case errors.Is(err, context.Canceled):
		j.status = JobCancelled
		j.err = err
	default:
		j.status = JobFailed
		j.err = err
	}
	j.cancel() // release the context's resources
	// Close out the trace under the lock: spanQueue/spanRun are written
	// by Submit and dispatchLocked under the same mutex, and nothing
	// else touches them once the status is terminal.
	j.spanRun.End()
	j.spanQueue.End()
	if j.trace != nil {
		j.trace.Root().End()
	}
	log := m.log
	m.mu.Unlock()

	if log != nil {
		rec := logRecord{JobID: j.ID, Tenant: j.tenant, Time: j.finished}
		switch j.status {
		case JobDone:
			rec.Type = "done"
			rec.Result = resultJSON(res)
		case JobCancelled:
			rec.Type = "cancel"
		default:
			rec.Type = "fail"
			rec.Error = j.err.Error()
		}
		log.Append(rec)
	}

	// Record metrics before unblocking waiters: a synchronous client must
	// see its own job in /metrics as soon as its response arrives.
	backend := ""
	if j.req != nil {
		backend = j.req.backend
	}
	var run time.Duration
	if !j.started.IsZero() {
		run = j.finished.Sub(j.started)
	}
	m.metrics.observe(backend, j.tenant, j.status, run)
	total := j.finished.Sub(j.submitted)
	queued := total
	if !j.started.IsZero() {
		queued = j.started.Sub(j.submitted)
		m.metrics.observePhase("run", run)
	}
	m.metrics.observePhase("queue", queued)
	m.metrics.observePhase("total", total)
	if j.trace != nil {
		snap := j.trace.Snapshot()
		// Fold the engine-side spans into the per-phase histograms so
		// /metrics carries translate/stages/query/emit percentiles even
		// though those spans live inside individual traces.
		snap.Walk(func(sp obs.SpanJSON) {
			switch sp.Name {
			case "translate", "stages", "query", "emit":
				m.metrics.observePhase(sp.Name, time.Duration(sp.DurationUs)*time.Microsecond)
			}
		})
		if m.slow != nil {
			m.slow.maybeRecord(j.ID, j.tenant, backend, string(j.status), j.finished, total, &snap)
		}
	}
	close(j.done)
	m.cond.Broadcast()
}

// Job looks a job up by id.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// JobTrace snapshots a job's span tree. ok is false when the job is
// unknown or was not traced (tracing off, or a replayed job). The
// snapshot is safe while the job is still running: unfinished spans
// report Unfinished with their duration so far.
func (m *Manager) JobTrace(id string) (obs.SpanJSON, JobStatus, bool) {
	m.mu.Lock()
	j, jok := m.jobs[id]
	var tr *obs.Trace
	var status JobStatus
	if jok {
		tr = j.trace
		status = j.status
	}
	m.mu.Unlock()
	if tr == nil {
		return obs.SpanJSON{}, status, false
	}
	return tr.Snapshot(), status, true
}

// Cancel requests cancellation: a queued job is removed from its
// tenant's queue and finishes as cancelled without ever occupying a
// worker or an admission reservation; a running job's engine work stops
// at the next batch/morsel boundary. Cancelling a finished job is a
// no-op.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	if j.status == JobQueued {
		ts := m.tenantLocked(j.tenant)
		for i, q := range ts.queue {
			if q == j {
				ts.queue = append(ts.queue[:i], ts.queue[i+1:]...)
				m.queuedTotal--
				break
			}
		}
		m.mu.Unlock()
		j.cancel()
		m.finishJob(j, nil, context.Canceled)
		return nil
	}
	m.mu.Unlock()
	j.cancel()
	m.cond.Broadcast()
	return nil
}

// Wait blocks until the job finishes or ctx is done.
func (m *Manager) Wait(ctx context.Context, id string) (*Job, error) {
	j, err := m.Job(id)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.done:
		return j, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// RunSync submits and waits. When ctx is cancelled mid-run (an HTTP
// client hanging up), the job is cancelled too — engine-level, so the
// in-flight query aborts and releases its memory.
func (m *Manager) RunSync(ctx context.Context, req Request) (*sim.Result, error) {
	j, err := m.Submit(req)
	if err != nil {
		return nil, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		m.Cancel(j.ID)
		<-j.done
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	return j.result, nil
}

// Snapshot renders a job for the API. Results are attached only to
// done jobs and only when includeResult is set (they can be large; the
// amplitude gather happens outside the manager lock so a slow poller
// never stalls scheduling).
func (m *Manager) Snapshot(j *Job, includeResult bool) JobJSON {
	m.mu.Lock()
	out := JobJSON{
		ID:          j.ID,
		Status:      string(j.status),
		Tenant:      j.tenant,
		SubmittedAt: j.submitted,
	}
	if j.req != nil {
		out.Backend = j.req.backend
		out.NumQubits = j.req.circuit.NumQubits()
		out.Gates = j.req.circuit.Len()
	}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	switch {
	case j.started.IsZero() && j.finished.IsZero():
		out.QueueSeconds = time.Since(j.submitted).Seconds()
	case j.started.IsZero():
		out.QueueSeconds = j.finished.Sub(j.submitted).Seconds()
	default:
		out.QueueSeconds = j.started.Sub(j.submitted).Seconds()
		if j.finished.IsZero() {
			out.RunSeconds = time.Since(j.started).Seconds()
		} else {
			out.RunSeconds = j.finished.Sub(j.started).Seconds()
		}
	}
	var res *sim.Result
	var replayed *ResultJSON
	if includeResult && j.status == JobDone {
		res = j.result // immutable once done
		replayed = j.replayed
	}
	m.mu.Unlock()
	if res != nil {
		out.Result = resultJSON(res)
	} else if replayed != nil {
		out.Result = replayed
	}
	return out
}

// Jobs snapshots every retained job, newest first.
func (m *Manager) Jobs() []JobJSON {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]JobJSON, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		if j, err := m.Job(ids[i]); err == nil {
			out = append(out, m.Snapshot(j, false))
		}
	}
	return out
}

// Close cancels all queued and running jobs and joins the workers.
// Shutdown-time cancellations are NOT appended to the job log: jobs
// that were queued or running keep their last durable state, so a
// restart on the same data dir re-enqueues and re-executes them.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	log := m.log
	m.log = nil
	var queued []*Job
	for _, ts := range m.ring {
		queued = append(queued, ts.queue...)
		ts.queue = nil
	}
	m.queuedTotal = 0
	for _, j := range m.jobs {
		j.cancel()
	}
	m.mu.Unlock()
	m.cond.Broadcast()

	for _, j := range queued {
		m.finishJob(j, nil, context.Canceled)
	}
	m.wg.Wait()
	if log != nil {
		log.Close()
	}
	if m.slow != nil {
		m.slow.Close()
	}
}
