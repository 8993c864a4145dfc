package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qymera/internal/circuits"
	"qymera/internal/obs"
)

// waitDone blocks until the job is terminal.
func waitDone(t *testing.T, m *Manager, id string) *Job {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// spanNames flattens a snapshot into its depth-first span names.
func spanNames(sp obs.SpanJSON) []string {
	var out []string
	sp.Walk(func(s obs.SpanJSON) { out = append(out, s.Name) })
	return out
}

// TestJobTraceCoversLifecycle runs one traced job and asserts the span
// tree covers the whole pipeline: queue wait, dispatch-to-finish run,
// translation, per-stage execution, the final query, and the amplitude
// emit — with the plan-cache tier and row counters attached.
func TestJobTraceCoversLifecycle(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	j, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.GHZ(6))})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, j.ID)

	snap, status, ok := m.JobTrace(j.ID)
	if !ok {
		t.Fatal("JobTrace reported no trace for a traced job")
	}
	if status != JobDone {
		t.Fatalf("status = %s, want done", status)
	}
	names := map[string]bool{}
	for _, n := range spanNames(snap) {
		names[n] = true
	}
	for _, want := range []string{"queue", "run", "translate", "stages", "query", "emit"} {
		if !names[want] {
			t.Errorf("trace is missing a %q span (have %v)", want, spanNames(snap))
		}
	}
	var unfinished []string
	snap.Walk(func(s obs.SpanJSON) {
		if s.Unfinished {
			unfinished = append(unfinished, s.Name)
		}
	})
	if len(unfinished) > 0 {
		t.Errorf("finished job left spans open: %v", unfinished)
	}
	// The translate span carries the plan-cache tier (a cold cache
	// misses) and the stage count.
	var translate *obs.SpanJSON
	snap.Walk(func(s obs.SpanJSON) {
		if s.Name == "translate" {
			c := s
			translate = &c
		}
	})
	if translate.Counters["plan_miss"] != 1 {
		t.Errorf("translate counters = %v, want plan_miss=1", translate.Counters)
	}
	if translate.Counters["stages"] == 0 {
		t.Errorf("translate span reports no stages: %v", translate.Counters)
	}
}

// TestJobTraceEndpoint exercises GET /v1/jobs/{id}/trace in both
// formats: the JSON span tree and Chrome trace_event JSON (which must
// carry the fields chrome://tracing requires on every event).
func TestJobTraceEndpoint(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	m := s.Manager()
	j, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.GHZ(5))})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, j.ID)

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+j.ID+"/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("GET trace: HTTP %d: %s", rec.Code, rec.Body)
	}
	var tr TraceJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.JobID != j.ID || tr.Status != "done" || tr.Trace.Name != j.ID {
		t.Fatalf("trace envelope = %+v", tr)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+j.ID+"/trace?format=chrome", nil))
	if rec.Code != 200 {
		t.Fatalf("GET chrome trace: HTTP %d", rec.Code)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("chrome event %v is missing required field %q", ev, field)
			}
		}
		if ev["ph"] != "X" {
			t.Fatalf("chrome event %v: ph = %v, want X", ev, ev["ph"])
		}
	}

	// Unknown jobs and untraced jobs 404.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/nope/trace", nil))
	if rec.Code != 404 {
		t.Fatalf("GET trace for unknown job: HTTP %d, want 404", rec.Code)
	}
	off, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.GHZ(3)), Options: RequestOptions{Trace: "off"}})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, off.ID)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+off.ID+"/trace", nil))
	if rec.Code != 404 {
		t.Fatalf("GET trace for untraced job: HTTP %d, want 404", rec.Code)
	}
}

// TestTraceShapeDeterministic asserts the span-tree SHAPE (names and
// nesting, ignoring timings) is identical across worker-pool sizes —
// the structural-tracing contract: operator spans derive from the
// plan, never from job scheduling.
func TestTraceShapeDeterministic(t *testing.T) {
	shape := func(workers int) string {
		m := NewManager(Config{Workers: workers})
		defer m.Close()
		j, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.QFT(6))})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, m, j.ID)
		snap, _, ok := m.JobTrace(j.ID)
		if !ok {
			t.Fatal("no trace")
		}
		// The root is named after the job id; normalize it so shapes from
		// different managers compare equal.
		snap.Name = "job"
		return snap.Shape()
	}
	if got, base := shape(4), shape(1); got != base {
		t.Errorf("workers=4 shape differs from workers=1:\n got %s\nwant %s", got, base)
	}
}

// TestTracingModeValidated: the server-wide tracing mode and the
// per-request options.trace accept the same names, and an unknown one
// fails instead of quietly sampling: OpenManager with an error naming
// the bad value, Submit with a rejected request.
func TestTracingModeValidated(t *testing.T) {
	for _, mode := range []string{"", "on", "sampled", "full", "FULL", "off"} {
		m, err := OpenManager(Config{Workers: 1, Tracing: mode})
		if err != nil {
			t.Fatalf("tracing %q: %v", mode, err)
		}
		if _, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.GHZ(2)), Options: RequestOptions{Trace: mode}}); err != nil {
			t.Errorf("options.trace %q: %v", mode, err)
		}
		m.Close()
	}
	for _, mode := range []string{"ful", "sample", "none"} {
		if m, err := OpenManager(Config{Workers: 1, Tracing: mode}); err == nil {
			m.Close()
			t.Errorf("OpenManager accepted tracing %q", mode)
		} else if !strings.Contains(err.Error(), `"`+mode+`"`) {
			t.Errorf("tracing %q: error %q does not name the value", mode, err)
		}
	}
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	if _, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.GHZ(2)), Options: RequestOptions{Trace: "ful"}}); err == nil {
		t.Error("Submit accepted options.trace \"ful\"")
	}
}

// TestTraceBitIdenticalAmplitudes asserts tracing never perturbs
// results: amplitudes are bitwise identical with tracing off, sampled,
// and full.
func TestTraceBitIdenticalAmplitudes(t *testing.T) {
	doc := circuitDoc(t, circuits.QFT(7))
	amps := func(trace string) []Amplitude {
		m := NewManager(Config{Workers: 1, Tracing: trace})
		defer m.Close()
		res, err := m.RunSync(context.Background(), Request{Circuit: doc})
		if err != nil {
			t.Fatal(err)
		}
		return stateAmplitudes(res.State)
	}
	want := amps("off")
	for _, mode := range []string{"sampled", "full"} {
		got := amps(mode)
		if len(got) != len(want) {
			t.Fatalf("tracing %s: %d amplitudes, want %d", mode, len(got), len(want))
		}
		for i := range want {
			if want[i].S != got[i].S ||
				math.Float64bits(want[i].R) != math.Float64bits(got[i].R) ||
				math.Float64bits(want[i].I) != math.Float64bits(got[i].I) {
				t.Fatalf("tracing %s: amplitude %d differs: %+v vs %+v", mode, i, want[i], got[i])
			}
		}
	}
}

// TestTraceConcurrentCollection hammers JobTrace while jobs run — the
// race detector guards the snapshot path against the span-mutating
// scheduler, engine, and finishJob.
func TestTraceConcurrentCollection(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Close()
	const jobs = 4
	ids := make([]string, jobs)
	for i := range ids {
		j, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.QFT(6))})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j.ID
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					if snap, _, ok := m.JobTrace(id); ok {
						_ = snap.Shape() // touch the whole tree
					}
				}
			}
		}()
	}
	for _, id := range ids {
		waitDone(t, m, id)
	}
	close(stop)
	wg.Wait()
	for _, id := range ids {
		snap, _, ok := m.JobTrace(id)
		if !ok || len(snap.Children) == 0 {
			t.Fatalf("job %s: trace missing or empty after concurrent collection", id)
		}
	}
}

// TestMetricsRecordFailedAndCancelledJobs is the regression test for
// latency silently dropped on non-done jobs: every terminal status —
// cancelled included — must land in the backend, tenant, and phase
// histograms.
func TestMetricsRecordFailedAndCancelledJobs(t *testing.T) {
	s := New(Config{Workers: 1})
	defer s.Close()
	m := s.Manager()

	// One done job, then one job cancelled while queued behind it... the
	// single worker guarantees ordering.
	blocker, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.QFT(7)), Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.QFT(7)), Tenant: "acme"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(victim.ID); err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, blocker.ID)
	waitDone(t, m, victim.ID)

	mt := s.Metrics()
	if got := mt.Backends["sql"].Count; got != 2 {
		t.Errorf("backend sql histogram count = %d, want 2 (done + cancelled)", got)
	}
	if got := mt.Tenants["acme"].Latency.Count; got != 2 {
		t.Errorf("tenant acme latency count = %d, want 2", got)
	}
	if got := mt.Phases["total"].Count; got != 2 {
		t.Errorf("phase total count = %d, want 2", got)
	}
	if mt.Phases["queue"].Count != 2 {
		t.Errorf("phase queue count = %d, want 2", mt.Phases["queue"].Count)
	}
	// Only the job that actually ran lands in the run phase.
	if mt.Phases["run"].Count != 1 {
		t.Errorf("phase run count = %d, want 1", mt.Phases["run"].Count)
	}
	if mt.Backends["sql"].P50Seconds < 0 || mt.Backends["sql"].P99Seconds < mt.Backends["sql"].P50Seconds {
		t.Errorf("backend percentiles inconsistent: %+v", mt.Backends["sql"])
	}
}

// TestSlowQueryLog asserts jobs over the threshold land in
// DataDir/slow_queries.ndjson with their full trace.
func TestSlowQueryLog(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(Config{Workers: 1, DataDir: dir, SlowQueryMillis: 1})
	j, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.QFT(7))})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m, j.ID)
	m.Close()

	raw, err := os.ReadFile(filepath.Join(dir, slowLogName))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 1 {
		t.Fatalf("slow log has %d lines, want 1", len(lines))
	}
	var rec slowQueryRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.JobID != j.ID || rec.Status != "done" || rec.TotalSeconds <= 0 {
		t.Fatalf("slow record = %+v", rec)
	}
	if rec.Trace == nil || len(rec.Trace.Children) == 0 {
		t.Fatal("slow record carries no trace")
	}
}
