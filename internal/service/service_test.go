package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"qymera/internal/circuits"
	"qymera/internal/quantum"
	"qymera/internal/sim"
)

// circuitDoc renders a circuit as the request JSON document.
func circuitDoc(t *testing.T, c *quantum.Circuit) json.RawMessage {
	t.Helper()
	doc := struct {
		NumQubits int `json:"num_qubits"`
		Gates     []struct {
			Name   string    `json:"name"`
			Qubits []int     `json:"qubits"`
			Params []float64 `json:"params,omitempty"`
		} `json:"gates"`
	}{NumQubits: c.NumQubits()}
	for _, g := range c.Gates() {
		doc.Gates = append(doc.Gates, struct {
			Name   string    `json:"name"`
			Qubits []int     `json:"qubits"`
			Params []float64 `json:"params,omitempty"`
		}{g.Name, g.Qubits, g.Params})
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func statesEqualBits(t *testing.T, want *quantum.State, got []Amplitude) {
	t.Helper()
	if want.Len() != len(got) {
		t.Fatalf("nonzero counts differ: want %d, got %d", want.Len(), len(got))
	}
	for _, a := range got {
		w := want.Amplitude(a.S)
		if math.Float64bits(real(w)) != math.Float64bits(a.R) ||
			math.Float64bits(imag(w)) != math.Float64bits(a.I) {
			t.Fatalf("amplitude at |%d⟩ differs: want %v, got (%v,%v)", a.S, w, a.R, a.I)
		}
	}
}

// TestRunSyncAllBackendsBitIdentical is the end-to-end acceptance
// check: every backend served through the manager produces amplitudes
// bit-identical to a direct in-process run.
func TestRunSyncAllBackendsBitIdentical(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Close()
	c := circuits.GHZ(8)
	doc := circuitDoc(t, c)

	direct := map[string]sim.Backend{
		"sql":         &sim.SQL{},
		"sql-chain":   &sim.SQL{Mode: 1},
		"statevector": &sim.StateVector{},
		"sparse":      &sim.Sparse{},
		"mps":         &sim.MPS{},
		"dd":          &sim.DD{},
	}
	for name, b := range direct {
		want, err := b.Run(c)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		res, err := m.RunSync(context.Background(), Request{Circuit: doc, Backend: name})
		if err != nil {
			t.Fatalf("%s via service: %v", name, err)
		}
		statesEqualBits(t, want.State, stateAmplitudes(res.State))
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	j, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.QFT(5))})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot(j, true)
	if snap.Status != string(JobDone) {
		t.Fatalf("status %s (err %q)", snap.Status, snap.Error)
	}
	if snap.Result == nil || len(snap.Result.Amplitudes) == 0 {
		t.Fatal("done job has no result")
	}
	if snap.Result.Stats.Backend != "sql" {
		t.Fatalf("stats backend %q", snap.Result.Stats.Backend)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	// Big enough that cancellation lands mid-run.
	j, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.ParitySuperposition(16))})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it is actually running, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		st := j.status
		m.mu.Unlock()
		if st == JobRunning || st.terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancelCtx := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancelCtx()
	if _, err := m.Wait(ctx, j.ID); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot(j, false)
	if snap.Status != string(JobCancelled) && snap.Status != string(JobDone) {
		t.Fatalf("status %s", snap.Status)
	}
	if snap.Status == string(JobDone) {
		t.Skip("job finished before cancellation landed")
	}
	// The cancelled job's engine reservations must all be released.
	if used := m.Budget().Used(); used != 0 {
		t.Fatalf("cancelled job leaked %d budget bytes", used)
	}
}

func TestQueueFullRejects(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 1})
	defer m.Close()
	doc := circuitDoc(t, circuits.ParitySuperposition(15))
	// Fill the single worker + the single queue slot, then overflow.
	var jobs []*Job
	sawFull := false
	for i := 0; i < 8; i++ {
		j, err := m.Submit(Request{Circuit: doc})
		if err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatal(err)
			}
			sawFull = true
			break
		}
		jobs = append(jobs, j)
	}
	if !sawFull {
		t.Fatal("queue never filled")
	}
	for _, j := range jobs {
		m.Cancel(j.ID)
	}
}

// TestAdmissionControl: a job whose declared estimate does not fit the
// admission ledger (sum of running estimates vs the budget limit)
// stays queued until the blocking job finishes.
func TestAdmissionControl(t *testing.T) {
	// Generous limit: the ledger, not actual engine memory, is the
	// constraint — the blocker's estimate fills 3/4 of it.
	const limit = 256 << 20
	m := NewManager(Config{Workers: 2, MemoryBudget: limit})
	defer m.Close()

	// A job whose estimate can never fit is rejected outright.
	doc := circuitDoc(t, circuits.GHZ(4))
	if _, err := m.Submit(Request{Circuit: doc, Options: RequestOptions{EstimatedBytes: limit + 1}}); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("want ErrOverBudget, got %v", err)
	}

	// The blocker runs long enough to observe the waiter being held.
	blocker, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.ParitySuperposition(16)), Options: RequestOptions{EstimatedBytes: limit * 3 / 4}})
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := m.Submit(Request{Circuit: doc, Options: RequestOptions{EstimatedBytes: limit / 2}})
	if err != nil {
		t.Fatal(err)
	}

	// While the blocker runs, the waiter must be held in admission
	// (3/4 + 1/2 > 1) even though a worker is free.
	deadline := time.Now().Add(10 * time.Second)
	for {
		m.mu.Lock()
		blockerRunning := blocker.status == JobRunning
		m.mu.Unlock()
		if blockerRunning || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	m.mu.Lock()
	if blocker.status == JobRunning {
		if waiter.status != JobQueued {
			m.mu.Unlock()
			t.Fatalf("waiter not held back: status %s", waiter.status)
		}
	}
	m.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(ctx, waiter.ID); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{blocker.ID, waiter.ID} {
		j, _ := m.Job(id)
		if snap := m.Snapshot(j, false); snap.Status != string(JobDone) {
			t.Fatalf("job %s: status %s (err %q)", id, snap.Status, snap.Error)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.admitted != 0 {
		t.Fatalf("admission ledger leaked: %d bytes", m.admitted)
	}
}

// TestPlanCacheSharedAcrossRequests: repeated circuits served by
// different requests hit the shared cache.
func TestPlanCacheSharedAcrossRequests(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	defer m.Close()
	doc := circuitDoc(t, circuits.GHZ(6))
	for i := 0; i < 3; i++ {
		if _, err := m.RunSync(context.Background(), Request{Circuit: doc}); err != nil {
			t.Fatal(err)
		}
	}
	st := m.PlanCacheStats()
	if st.Hits < 2 {
		t.Fatalf("expected >= 2 exact cache hits, got %+v", st)
	}
}

func TestBadRequests(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	cases := []Request{
		{},                                 // no circuit
		{Circuit: json.RawMessage(`{"x"`)}, // invalid JSON
		{Circuit: circuitDoc(t, circuits.GHZ(3)), Backend: "quantum-annealer"},
		{Circuit: circuitDoc(t, circuits.GHZ(3)), Options: RequestOptions{Fusion: "maximal"}},
	}
	for i, req := range cases {
		if _, err := m.Submit(req); err == nil {
			t.Errorf("case %d: bad request accepted", i)
		}
	}
}

func TestManagerCloseCancelsQueued(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 8})
	doc := circuitDoc(t, circuits.ParitySuperposition(15))
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := m.Submit(Request{Circuit: doc})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	m.Close()
	for _, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %s not finished after Close", j.ID)
		}
	}
	if used := m.Budget().Used(); used != 0 {
		t.Fatalf("Close leaked %d budget bytes", used)
	}
	if _, err := m.Submit(Request{Circuit: doc}); !errors.Is(err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}

func TestJobEviction(t *testing.T) {
	m := NewManager(Config{Workers: 1, RetainJobs: 2})
	defer m.Close()
	doc := circuitDoc(t, circuits.GHZ(3))
	var last *Job
	for i := 0; i < 5; i++ {
		j, err := m.Submit(Request{Circuit: doc})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := m.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		cancel()
		last = j
	}
	// One more submission triggers eviction down to RetainJobs.
	if _, err := m.Submit(Request{Circuit: doc}); err != nil {
		t.Fatal(err)
	}
	if n := len(m.Jobs()); n > 4 { // 2 retained finished + up to 2 live
		t.Fatalf("retained %d jobs, want <= 4", n)
	}
	if _, err := m.Job(last.ID); err != nil && !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
}

// TestServiceDocListsRequestOptions guards docs/SERVICE.md against
// drift: its `options` list must name exactly the JSON keys of
// RequestOptions, in either direction.
func TestServiceDocListsRequestOptions(t *testing.T) {
	doc, err := os.ReadFile("../../docs/SERVICE.md")
	if err != nil {
		t.Fatal(err)
	}
	_, list, ok := strings.Cut(string(doc), "- `options` (all optional):\n")
	if !ok {
		t.Fatal("docs/SERVICE.md has no `options` list")
	}
	item := regexp.MustCompile("^  - `([a-z_]+)`")
	var documented []string
	for _, line := range strings.Split(list, "\n") {
		if m := item.FindStringSubmatch(line); m != nil {
			documented = append(documented, m[1])
		} else if !strings.HasPrefix(line, "    ") {
			break // the list ends at the first line that is neither an item nor its continuation
		}
	}
	var fields []string
	rt := reflect.TypeOf(RequestOptions{})
	for i := 0; i < rt.NumField(); i++ {
		if name, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
			fields = append(fields, name)
		}
	}
	slices.Sort(documented)
	slices.Sort(fields)
	if !slices.Equal(documented, fields) {
		t.Fatalf("docs/SERVICE.md options %v, RequestOptions JSON keys %v", documented, fields)
	}
}
