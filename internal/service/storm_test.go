package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"qymera/internal/circuits"
	"qymera/internal/quantum"
	"qymera/internal/sim"
)

// TestHTTPStormMultiTenantDurable floods a durable server (job log on)
// with concurrent HTTP clients spread over several tenants, each
// request declaring an admission estimate. Every request must complete,
// every served amplitude must be bit-identical to a direct sim.SQL run
// of the same circuit, and the admission ledger must drain to zero.
func TestHTTPStormMultiTenantDurable(t *testing.T) {
	const tenants, clientsPerTenant, requestsPerClient = 3, 4, 4
	const clients = tenants * clientsPerTenant
	const total = clients * requestsPerClient

	s, err := Open(Config{
		Workers:      2,
		QueueDepth:   2 * clients,
		MemoryBudget: 64 << 20,
		SpillDir:     t.TempDir(),
		DataDir:      t.TempDir(),
		RetainJobs:   total + clients,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})

	mix := []*quantum.Circuit{circuits.GHZ(6), circuits.QFT(5)}
	bodies := make([][]byte, len(mix))
	direct := make([]*quantum.State, len(mix))
	for i, c := range mix {
		body, err := json.Marshal(Request{
			Circuit: circuitDoc(t, c),
			Options: RequestOptions{EstimatedBytes: 1 << 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = body
		res, err := (&sim.SQL{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		direct[i] = res.State
	}

	post := func(body []byte, tenant string) (ResultJSON, error) {
		var res ResultJSON
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/simulate", bytes.NewReader(body))
		if err != nil {
			return res, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return res, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return res, fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return res, json.NewDecoder(resp.Body).Decode(&res)
	}

	// Clients stagger the mix so circuits interleave within and across
	// tenants; results are checked on the test goroutine afterwards.
	results := make([]ResultJSON, total)
	errs := make([]error, total)
	circuitOf := func(idx int) int { return (idx/requestsPerClient + idx%requestsPerClient) % len(mix) }
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", ci%tenants)
			for r := 0; r < requestsPerClient; r++ {
				idx := ci*requestsPerClient + r
				results[idx], errs[idx] = post(bodies[circuitOf(idx)], tenant)
			}
		}(ci)
	}
	wg.Wait()

	for idx := range results {
		if errs[idx] != nil {
			t.Fatalf("request %d: %v", idx, errs[idx])
		}
		statesEqualBits(t, direct[circuitOf(idx)], results[idx].Amplitudes)
	}

	// Every response is written after its job finished, but the worker
	// releases the job's reservation on its own goroutine: wait for the
	// last release before reading the ledger.
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := s.Metrics()
		if m.Jobs[string(JobDone)] == total && m.Budget.AdmittedBytes == 0 {
			for name, tm := range m.Tenants {
				if tm.AdmittedBytes != 0 {
					t.Fatalf("tenant %s holds %d admitted bytes after the storm", name, tm.AdmittedBytes)
				}
			}
			if !m.JobLog.Enabled || m.JobLog.AppendedRecords == 0 {
				t.Fatalf("job log not exercised: %+v", m.JobLog)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("storm did not settle: done=%d/%d admitted_bytes=%d", m.Jobs[string(JobDone)], total, m.Budget.AdmittedBytes)
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkLedgerInvariants(t, s.Manager())
}
