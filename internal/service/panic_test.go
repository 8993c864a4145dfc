package service

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"qymera/internal/circuits"
	"qymera/internal/quantum"
	"qymera/internal/sim"
)

// One hostile request must never take qymerad down: widths no backend
// can hold are refused at parse time, and a panic inside a backend
// fails only its own job.

// TestHTTPRejectsUnsupportedWidth: a 64-qubit circuit — whose basis
// index overflows every backend's state — is a 400, and the server goes
// on serving.
func TestHTTPRejectsUnsupportedWidth(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	body := `{"circuit": {"num_qubits": 64, "gates": [{"name":"H","qubits":[0]}]}}`
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	e := decodeBody[errorJSON](t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "num_qubits 64") {
		t.Fatalf("status %d, error %q; want 400 naming num_qubits", resp.StatusCode, e.Error)
	}
	resp = postJSON(t, ts.URL+"/v1/simulate", Request{Circuit: circuitDoc(t, circuits.GHZ(3))})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GHZ-3 after the rejected request: status %d", resp.StatusCode)
	}
	if res := decodeBody[ResultJSON](t, resp); len(res.Amplitudes) != 2 {
		t.Fatalf("GHZ-3 amplitudes %v", res.Amplitudes)
	}
}

// panicBackend is a backend whose every run panics.
type panicBackend struct{}

func (panicBackend) Name() string { return "panic" }

func (b panicBackend) Run(c *quantum.Circuit) (*sim.Result, error) {
	return b.RunContext(context.Background(), c)
}

func (panicBackend) RunContext(context.Context, *quantum.Circuit) (*sim.Result, error) {
	panic("injected backend fault")
}

// TestBackendPanicFailsOnlyItsJob: a backend panic fails its job with
// the panic as the error, releases the job's admission bytes, and the
// same worker runs the next job.
func TestBackendPanicFailsOnlyItsJob(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, MemoryBudget: 1 << 30})
	m := s.Manager()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	run := func() JobJSON {
		t.Helper()
		j, err := m.Submit(Request{
			Circuit: circuitDoc(t, circuits.GHZ(3)),
			Options: RequestOptions{EstimatedBytes: 1 << 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot(j, true)
	}

	m.backendFor = func(*parsedRequest) (sim.Backend, error) { return panicBackend{}, nil }
	failed := run()
	if failed.Status != string(JobFailed) || !strings.Contains(failed.Error, "injected backend fault") {
		t.Fatalf("panicking job: status %s, error %q", failed.Status, failed.Error)
	}
	if got := s.Metrics().Budget.AdmittedBytes; got != 0 {
		t.Fatalf("admitted bytes after the panic: %d, want 0", got)
	}
	checkLedgerInvariants(t, m)

	m.backendFor = m.newBackend
	if done := run(); done.Status != string(JobDone) || done.Result == nil || len(done.Result.Amplitudes) != 2 {
		out, _ := json.Marshal(done)
		t.Fatalf("job after the panic: %s", out)
	}
}
