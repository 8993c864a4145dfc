package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"qymera/internal/circuits"
	"qymera/internal/sim"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPSimulateSync(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	c := circuits.GHZ(8)
	want, err := (&sim.SQL{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/simulate", Request{Circuit: circuitDoc(t, c)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	res := decodeBody[ResultJSON](t, resp)
	if res.NumQubits != 8 {
		t.Fatalf("num_qubits %d", res.NumQubits)
	}
	statesEqualBits(t, want.State, res.Amplitudes)
	if res.Stats.Backend != "sql" {
		t.Fatalf("backend %q", res.Stats.Backend)
	}
}

// TestHTTPSimulateNDJSON checks the streaming framing: header line,
// amplitude lines sorted by s, stats trailer — and that the streamed
// amplitudes are bit-identical to the direct run.
func TestHTTPSimulateNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	c := circuits.QFT(7) // dense: 128 amplitude lines
	want, err := (&sim.SQL{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}

	resp := postJSON(t, ts.URL+"/v1/simulate?stream=ndjson", Request{Circuit: circuitDoc(t, c)})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	if !sc.Scan() {
		t.Fatal("no header line")
	}
	var hdr struct {
		NumQubits  int    `json:"num_qubits"`
		Backend    string `json:"backend"`
		Amplitudes int    `json:"amplitudes"`
	}
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.NumQubits != 7 || hdr.Amplitudes != want.State.Len() {
		t.Fatalf("header %+v", hdr)
	}

	var amps []Amplitude
	var sawStats bool
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"stats"`)) {
			var tr struct {
				Stats StatsJSON `json:"stats"`
			}
			if err := json.Unmarshal(line, &tr); err != nil {
				t.Fatal(err)
			}
			if tr.Stats.Backend != "sql" {
				t.Fatalf("trailer stats %+v", tr.Stats)
			}
			sawStats = true
			continue
		}
		var a Amplitude
		if err := json.Unmarshal(line, &a); err != nil {
			t.Fatal(err)
		}
		if n := len(amps); n > 0 && amps[n-1].S >= a.S {
			t.Fatalf("amplitudes not sorted: %d then %d", amps[n-1].S, a.S)
		}
		amps = append(amps, a)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawStats {
		t.Fatal("no stats trailer")
	}
	statesEqualBits(t, want.State, amps)
}

func TestHTTPJobLifecycleAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// Submit async.
	resp := postJSON(t, ts.URL+"/v1/jobs", Request{Circuit: circuitDoc(t, circuits.GHZ(6)), Backend: "sparse"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	job := decodeBody[JobJSON](t, resp)
	if job.ID == "" || job.Backend != "sparse" {
		t.Fatalf("job %+v", job)
	}

	// Poll until done.
	var final JobJSON
	for i := 0; i < 1000; i++ {
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", ts.URL, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		final = decodeBody[JobJSON](t, r)
		if JobStatus(final.Status).terminal() {
			break
		}
	}
	if final.Status != "done" || final.Result == nil {
		t.Fatalf("final %+v", final)
	}

	// List.
	r, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Jobs []JobJSON `json:"jobs"`
	}](t, r)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Fatalf("list %+v", list)
	}

	// A second identical circuit should hit the plan cache only for sql
	// backends; run one to move cache counters.
	postJSON(t, ts.URL+"/v1/simulate", Request{Circuit: circuitDoc(t, circuits.GHZ(6))}).Body.Close()
	postJSON(t, ts.URL+"/v1/simulate", Request{Circuit: circuitDoc(t, circuits.GHZ(6))}).Body.Close()

	// Metrics.
	r, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := decodeBody[MetricsJSON](t, r)
	if metrics.Workers != 1 || metrics.QueueCapacity != 64 {
		t.Fatalf("metrics %+v", metrics)
	}
	if metrics.Jobs["done"] < 3 {
		t.Fatalf("done count %d", metrics.Jobs["done"])
	}
	if metrics.PlanCache.Hits < 1 {
		t.Fatalf("plan cache hits %+v", metrics.PlanCache)
	}
	if lat, ok := metrics.Backends["sparse"]; !ok || lat.Count != 1 {
		t.Fatalf("sparse latency %+v", metrics.Backends)
	}
	if lat, ok := metrics.Backends["sql"]; !ok || lat.Count != 2 {
		t.Fatalf("sql latency %+v", metrics.Backends)
	}

	// Healthz.
	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeBody[HealthJSON](t, r)
	if health.Status != "ok" || len(health.Backends) != 6 {
		t.Fatalf("health %+v", health)
	}
	_ = s
}

func TestHTTPCancelJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp := postJSON(t, ts.URL+"/v1/jobs", Request{Circuit: circuitDoc(t, circuits.ParitySuperposition(16))})
	job := decodeBody[JobJSON](t, resp)

	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, job.ID), nil)
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", r.StatusCode)
	}
	r.Body.Close()

	var final JobJSON
	for i := 0; i < 1000; i++ {
		rr, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", ts.URL, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		final = decodeBody[JobJSON](t, rr)
		if JobStatus(final.Status).terminal() {
			break
		}
	}
	if final.Status != "cancelled" && final.Status != "done" {
		t.Fatalf("final status %q", final.Status)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp := postJSON(t, ts.URL+"/v1/simulate", Request{Circuit: json.RawMessage(`{}`)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad circuit: status %d", resp.StatusCode)
	}
	body := decodeBody[errorJSON](t, resp)
	if !strings.Contains(body.Error, "num_qubits") {
		t.Fatalf("error %q", body.Error)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", r.StatusCode)
	}
	r.Body.Close()
}

// TestHTTPRequestBodyLimit: a body over maxRequestBytes is refused with
// 413 on both submit paths before it is decoded or logged, while a
// normal request on the same server still succeeds.
func TestHTTPRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	big := bytes.Repeat([]byte(" "), maxRequestBytes+1)
	copy(big, `{"tenant":"`)
	copy(big[len(big)-2:], `"}`)
	for _, path := range []string{"/v1/simulate", "/v1/jobs"} {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body: status %d, want 413", path, resp.StatusCode)
		}
		resp.Body.Close()
	}

	doc := Request{Circuit: circuitDoc(t, circuits.GHZ(3))}
	for path, want := range map[string]int{"/v1/simulate": http.StatusOK, "/v1/jobs": http.StatusAccepted} {
		resp := postJSON(t, ts.URL+path, doc)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s: normal body: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestHTTPGateCountLimit: a circuit one gate over maxGates is a 400
// naming the limit and creates no job, while exactly maxGates gates is
// admitted and runs.
func TestHTTPGateCountLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	doc := func(gates int) Request {
		g := strings.Repeat(`{"name":"X","qubits":[0]},`, gates)
		return Request{
			Circuit: json.RawMessage(`{"num_qubits":1,"gates":[` + strings.TrimSuffix(g, ",") + `]}`),
			Backend: "statevector",
		}
	}
	resp := postJSON(t, ts.URL+"/v1/jobs", doc(maxGates+1))
	e := decodeBody[errorJSON](t, resp)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, fmt.Sprint(maxGates)) {
		t.Fatalf("status %d, error %q; want 400 naming the %d-gate limit", resp.StatusCode, e.Error, maxGates)
	}
	r, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	list := decodeBody[struct {
		Jobs []JobJSON `json:"jobs"`
	}](t, r)
	if len(list.Jobs) != 0 {
		t.Fatalf("rejected request created jobs: %+v", list.Jobs)
	}

	resp = postJSON(t, ts.URL+"/v1/jobs", doc(maxGates))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("%d gates: status %d, want 202", maxGates, resp.StatusCode)
	}
	job := decodeBody[JobJSON](t, resp)
	var final JobJSON
	for i := 0; i < 1000; i++ {
		r, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", ts.URL, job.ID))
		if err != nil {
			t.Fatal(err)
		}
		if final = decodeBody[JobJSON](t, r); JobStatus(final.Status).terminal() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.Status != "done" {
		t.Fatalf("%d-gate job ended %q: %s", maxGates, final.Status, final.Error)
	}
}

// TestNewHTTPServerTimeouts: the server qymerad runs bounds how long a
// client may take to send its headers and how long an idle keep-alive
// connection stays open, and serves the given handler on the given
// address.
func TestNewHTTPServerTimeouts(t *testing.T) {
	s := New(Config{})
	t.Cleanup(func() { s.Close() })
	hs := NewHTTPServer("127.0.0.1:0", s)
	if hs.ReadHeaderTimeout <= 0 || hs.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 || hs.IdleTimeout != idleTimeout {
		t.Fatalf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.Addr != "127.0.0.1:0" || hs.Handler != http.Handler(s) {
		t.Fatalf("server = {Addr: %q, Handler: %T}, want the given address and handler", hs.Addr, hs.Handler)
	}
}
