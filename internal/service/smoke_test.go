package service

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"qymera/internal/circuits"
	"qymera/internal/quantum"
	"qymera/internal/sim"
)

// TestQymeradBinarySmoke is the end-to-end smoke CI runs: build the
// real qymerad binary, start it, POST a GHZ-8 circuit over HTTP, and
// assert the amplitudes are bit-identical to a direct in-process
// NewSQLBackend-style run of the same circuit.
func TestQymeradBinarySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary smoke")
	}
	base := startQymerad(t, buildQymerad(t), "-workers", "2")

	// POST the GHZ-8 circuit; a direct in-process run of the same
	// circuit on the SQL backend is the reference.
	postSmoke(t, base, circuits.GHZ(8))

	// The server's metrics must be live too. GHZ-8's first CX runs over
	// the kernel chain's key-indexed state vector, then leaves it with
	// the two keys {0, 3}: one cube stage.
	metrics := getMetrics(t, base)
	if metrics.Jobs["done"] != 1 {
		t.Fatalf("metrics after one request: %+v", metrics)
	}
	if n, ok := metrics.Kernels["cube_stages"]; !ok || n != 1 {
		t.Fatalf("kernels.cube_stages = %d (present %v), want 1: %v", n, ok, metrics.Kernels)
	}
}

// TestQymeradBinarySmokeBudget: a qymerad started with a shared memory
// budget keeps the kernel tier on. QFT-8 and GHZ-8 served under a
// 64 MiB budget must be bit-identical to unbudgeted in-process runs,
// run as kernels with no budget decline, and leave the budget empty.
func TestQymeradBinarySmokeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary smoke")
	}
	base := startQymerad(t, buildQymerad(t), "-workers", "2", "-mem-budget", "67108864")
	for _, c := range []*quantum.Circuit{circuits.QFT(8), circuits.GHZ(8)} {
		postSmoke(t, base, c)
	}
	metrics := getMetrics(t, base)
	if metrics.Kernels["executions"] == 0 {
		t.Fatalf("no kernel ran under the budget: %v", metrics.Kernels)
	}
	if n := metrics.Kernels["fallback_budget-limited"]; n != 0 {
		t.Fatalf("%d budget-limited kernel declines under a 64 MiB budget: %v", n, metrics.Kernels)
	}
	if metrics.Budget.UsedBytes != 0 {
		t.Fatalf("budget still holds %d bytes after every job finished", metrics.Budget.UsedBytes)
	}
}

// buildQymerad builds the real qymerad binary into a temp dir.
func buildQymerad(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qymerad")
	build := exec.Command("go", "build", "-o", bin, "qymera/cmd/qymerad")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building qymerad: %v\n%s", err, out)
	}
	return bin
}

// startQymerad starts bin on a free local port with the extra flags,
// waits until it is healthy, and kills it when the test ends. Returns
// the server's base URL.
func startQymerad(t *testing.T, bin string, flags ...string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	srv := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	var logs bytes.Buffer
	srv.Stdout, srv.Stderr = &logs, &logs
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Process.Kill()
		srv.Wait()
	})
	base := "http://" + addr
	waitHealthy(t, base, &logs)
	return base
}

// postSmoke POSTs c to /v1/simulate and asserts the served amplitudes
// are bit-identical to a direct in-process sim.SQL run.
func postSmoke(t *testing.T, base string, c *quantum.Circuit) {
	t.Helper()
	body, err := json.Marshal(Request{Circuit: circuitDoc(t, c)})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate status %d", resp.StatusCode)
	}
	res := decodeBody[ResultJSON](t, resp)
	want, err := (&sim.SQL{}).Run(c)
	if err != nil {
		t.Fatal(err)
	}
	statesEqualBits(t, want.State, res.Amplitudes)
}

func getMetrics(t *testing.T, base string) MetricsJSON {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	return decodeBody[MetricsJSON](t, resp)
}

// TestQymeradRestartReplay is the crash-recovery smoke: a real qymerad
// with -data-dir is SIGKILLed with one job done, one running, and two
// queued; a second process on the same data dir (with a torn partial
// frame appended to the log, as a crash mid-append would leave) must
// keep the done job queryable, re-run the interrupted ones, count the
// torn tail — and serve amplitudes bit-identical to uninterrupted
// in-process runs for every job.
func TestQymeradRestartReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping binary restart replay")
	}
	bin := buildQymerad(t)
	dataDir := t.TempDir()

	freePort := func() string {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		return l.Addr().String()
	}
	startServer := func(addr string) (*exec.Cmd, *bytes.Buffer) {
		srv := exec.Command(bin, "-addr", addr, "-workers", "1", "-data-dir", dataDir)
		var logs bytes.Buffer
		srv.Stdout, srv.Stderr = &logs, &logs
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			srv.Process.Kill()
			srv.Wait()
		})
		waitHealthy(t, "http://"+addr, &logs)
		return srv, &logs
	}
	submit := func(base string, c *quantum.Circuit) string {
		body, err := json.Marshal(Request{Circuit: circuitDoc(t, c)})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		return decodeBody[JobJSON](t, resp).ID
	}
	getJob := func(base, id string) JobJSON {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get job %s: status %d", id, resp.StatusCode)
		}
		return decodeBody[JobJSON](t, resp)
	}
	waitStatus := func(base, id string, want JobStatus) JobJSON {
		deadline := time.Now().Add(120 * time.Second)
		for {
			j := getJob(base, id)
			if JobStatus(j.Status) == want {
				return j
			}
			if JobStatus(j.Status).terminal() || time.Now().After(deadline) {
				t.Fatalf("job %s: status %s (error %q), want %s", id, j.Status, j.Error, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	workloads := []*quantum.Circuit{
		circuits.GHZ(8),                  // finishes before the crash
		circuits.ParitySuperposition(16), // killed mid-run
		circuits.QFT(6),                  // killed mid-queue
		circuits.GHZ(5),                  // killed mid-queue
	}
	var want []*sim.Result
	for _, c := range workloads {
		res, err := (&sim.SQL{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res)
	}

	// First life: one worker, so the parity blocker pins the pool and
	// the last two jobs are still queued when the process dies.
	addr1 := freePort()
	srv1, _ := startServer(addr1)
	base1 := "http://" + addr1
	ids := []string{submit(base1, workloads[0])}
	waitStatus(base1, ids[0], JobDone)
	for _, c := range workloads[1:] {
		ids = append(ids, submit(base1, c))
	}
	waitStatus(base1, ids[1], JobRunning) // the blocker is mid-run...
	srv1.Process.Kill()                   // ...SIGKILL: no shutdown path runs
	srv1.Wait()

	// Simulate the torn final append a crash can leave behind: a
	// partial frame that replay must count and skip, never fail on.
	logPath := jobLogPath(dataDir)
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x10, 0, 0, 0, 0xAB}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Second life: same data dir, fresh port.
	addr2 := freePort()
	_, logs2 := startServer(addr2)
	base2 := "http://" + addr2

	mresp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics := decodeBody[MetricsJSON](t, mresp)
	rs := metrics.JobLog.Replay
	if !metrics.JobLog.Enabled {
		t.Fatalf("restarted server reports job log disabled: %+v", metrics.JobLog)
	}
	if rs.CorruptRecords != 1 {
		t.Fatalf("torn tail not counted: %+v\nserver logs:\n%s", rs, logs2.String())
	}
	if rs.CompletedKept < 1 || rs.Requeued < 2 {
		t.Fatalf("replay stats %+v, want >=1 kept and >=2 requeued\nserver logs:\n%s", rs, logs2.String())
	}

	// Every job — the replayed-done one and the re-executed ones — must
	// converge to done with amplitudes bit-identical to the references.
	for i, id := range ids {
		j := waitStatus(base2, id, JobDone)
		if j.Result == nil {
			t.Fatalf("job %s done without result", id)
		}
		statesEqualBits(t, want[i].State, j.Result.Amplitudes)
	}
}

func waitHealthy(t *testing.T, base string, logs *bytes.Buffer) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy: %v\nserver logs:\n%s", err, logs.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
}
