package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"qymera/internal/circuits"
)

// checkLedgerInvariants recomputes every scheduler ledger from first
// principles and compares: the shared admission ledger must equal the
// sum of running jobs' reservations, per-tenant ledgers must match
// per-tenant sums, and no ledger may exceed its configured cap.
func checkLedgerInvariants(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum int64
	perTenantBytes := map[string]int64{}
	perTenantRunning := map[string]int{}
	queued := 0
	for _, j := range m.jobs {
		switch j.status {
		case JobRunning:
			sum += j.admittedBytes
			perTenantBytes[j.tenant] += j.admittedBytes
			perTenantRunning[j.tenant]++
		case JobQueued:
			queued++
		default:
			if j.admittedBytes != 0 {
				t.Errorf("terminal job %s still holds %d admitted bytes", j.ID, j.admittedBytes)
			}
		}
	}
	if sum != m.admitted {
		t.Errorf("admission ledger %d != sum of running reservations %d", m.admitted, sum)
	}
	if lim := m.budget.Limit(); lim > 0 && m.admitted > lim {
		t.Errorf("admission ledger %d exceeds budget limit %d", m.admitted, lim)
	}
	if queued != m.queuedTotal {
		t.Errorf("queuedTotal %d != %d queued jobs", m.queuedTotal, queued)
	}
	for name, ts := range m.tenants {
		if ts.admitted != perTenantBytes[name] {
			t.Errorf("tenant %s ledger %d != running sum %d", name, ts.admitted, perTenantBytes[name])
		}
		if ts.running != perTenantRunning[name] {
			t.Errorf("tenant %s running %d != %d running jobs", name, ts.running, perTenantRunning[name])
		}
		if q := m.cfg.TenantMaxBytes; q > 0 && ts.admitted > q {
			t.Errorf("tenant %s ledger %d exceeds quota %d", name, ts.admitted, q)
		}
		if q := m.cfg.TenantMaxRunning; q > 0 && ts.running > q {
			t.Errorf("tenant %s has %d running, cap %d", name, ts.running, q)
		}
	}
}

func TestTenantQuotaRejections(t *testing.T) {
	m := NewManager(Config{
		Workers:         1,
		QueueDepth:      64,
		TenantMaxQueued: 2,
		TenantMaxBytes:  1 << 20,
	})
	defer m.Close()

	// An estimate that can never fit the tenant byte quota: 422-class.
	doc := circuitDoc(t, circuits.GHZ(3))
	_, err := m.Submit(Request{Circuit: doc, Tenant: "a", Options: RequestOptions{EstimatedBytes: 1<<20 + 1}})
	if !errors.Is(err, ErrTenantOverBudget) {
		t.Fatalf("want ErrTenantOverBudget, got %v", err)
	}

	// Fill tenant a's queue: the worker is busy with the blocker, so
	// subsequent jobs stay queued until the per-tenant cap rejects.
	blocker, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.ParitySuperposition(16)), Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	sawTenantFull := false
	for i := 0; i < 8; i++ {
		_, err := m.Submit(Request{Circuit: doc, Tenant: "a"})
		if err != nil {
			if !errors.Is(err, ErrTenantQueueFull) {
				t.Fatalf("want ErrTenantQueueFull, got %v", err)
			}
			sawTenantFull = true
			break
		}
	}
	if !sawTenantFull {
		t.Fatal("tenant queue never filled")
	}
	// Another tenant is unaffected by a's full queue.
	if _, err := m.Submit(Request{Circuit: doc, Tenant: "b"}); err != nil {
		t.Fatalf("tenant b rejected by a's quota: %v", err)
	}
	checkLedgerInvariants(t, m)
	m.Cancel(blocker.ID)
}

// TestTenantMaxRunning: with a per-tenant running cap of 1 and two
// workers, one tenant's second job must wait even though a worker is
// free — and another tenant's job takes that worker instead.
func TestTenantMaxRunning(t *testing.T) {
	m := NewManager(Config{Workers: 2, TenantMaxRunning: 1})
	defer m.Close()
	slow := circuitDoc(t, circuits.ParitySuperposition(16))
	fast := circuitDoc(t, circuits.GHZ(3))

	a1, err := m.Submit(Request{Circuit: slow, Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Submit(Request{Circuit: fast, Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := m.Submit(Request{Circuit: fast, Tenant: "b"})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// b's job finishes on the second worker while a's first still runs.
	if _, err := m.Wait(ctx, b1.ID); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	a1Running, a2Status := a1.status == JobRunning, a2.status
	m.mu.Unlock()
	if a1Running && a2Status != JobQueued {
		t.Fatalf("tenant a over its running cap: a1 running and a2 %s", a2Status)
	}
	checkLedgerInvariants(t, m)
	for _, j := range []*Job{a1, a2} {
		if _, err := m.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
	}
	checkLedgerInvariants(t, m)
}

// TestDRRFairInterleaving: with one worker and a backlog from a heavy
// tenant, a light tenant's few jobs must not wait behind the whole
// heavy backlog — deficit round robin interleaves them, so the light
// tenant's last job finishes well before the heavy tenant's.
//
// Dispatch order must not depend on how fast jobs run, so the blocker
// is dispatched alone (heavy's queue is empty when it leaves, so heavy
// keeps no DRR credit), outlives the submission of both backlogs by
// seconds, and is cancelled once they are queued.
func TestDRRFairInterleaving(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	doc := circuitDoc(t, circuits.GHZ(4))

	blocker, err := m.Submit(Request{Circuit: circuitDoc(t, circuits.RandomDense(14, 40, 1)), Tenant: "heavy"})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
		m.mu.Lock()
		running := blocker.status == JobRunning
		m.mu.Unlock()
		if running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never dispatched")
		}
	}
	var heavy, light []*Job
	for i := 0; i < 8; i++ {
		j, err := m.Submit(Request{Circuit: doc, Tenant: "heavy"})
		if err != nil {
			t.Fatal(err)
		}
		heavy = append(heavy, j)
	}
	for i := 0; i < 2; i++ {
		j, err := m.Submit(Request{Circuit: doc, Tenant: "light"})
		if err != nil {
			t.Fatal(err)
		}
		light = append(light, j)
	}
	if err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for _, j := range append(append([]*Job{blocker}, heavy...), light...) {
		if _, err := m.Wait(ctx, j.ID); err != nil {
			t.Fatal(err)
		}
	}
	m.mu.Lock()
	if blocker.status != JobCancelled {
		m.mu.Unlock()
		t.Fatalf("blocker ended %s before the backlog was queued; it must outlive the submissions", blocker.status)
	}
	lightLast := light[len(light)-1].finished
	heavyLast := heavy[len(heavy)-1].finished
	heavyBefore := 0
	for _, j := range heavy {
		if j.finished.Before(lightLast) {
			heavyBefore++
		}
	}
	m.mu.Unlock()
	if !lightLast.Before(heavyLast) {
		t.Fatalf("light tenant starved: its last job finished at %v, after heavy's last at %v", lightLast, heavyLast)
	}
	// Interleaving, not mere completion: at most a handful of the 8
	// heavy jobs may precede light's last (round robin ⇒ about 2).
	if heavyBefore > 4 {
		t.Fatalf("light tenant waited behind %d of 8 heavy jobs; DRR should interleave", heavyBefore)
	}
	checkLedgerInvariants(t, m)
}

// TestSchedulerPropertyRandom drives a randomized submit/cancel storm
// against the scheduler at 1 and 4 workers, checking the ledger
// invariants throughout (admitted == sum of running estimates, caps
// never exceeded) and that every admitted job eventually terminates —
// with no tenant starved. Run under -race in CI.
func TestSchedulerPropertyRandom(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const limit = 1 << 20
			rng := rand.New(rand.NewSource(int64(0xD0FA + workers)))
			m := NewManager(Config{
				Workers:          workers,
				QueueDepth:       256,
				MemoryBudget:     limit,
				TenantMaxRunning: 3,
				TenantMaxBytes:   limit / 2,
			})
			defer m.Close()

			tenants := []string{"alpha", "beta", "gamma"}
			circuitsPool := [][]byte{
				circuitDoc(t, circuits.GHZ(3)),
				circuitDoc(t, circuits.GHZ(4)),
				circuitDoc(t, circuits.QFT(3)),
			}
			estimates := []int64{0, limit / 16, limit / 8, limit / 4, limit / 2}

			var jobs []*Job
			submittedPerTenant := map[string]int{}
			const ops = 120
			for op := 0; op < ops; op++ {
				tenant := tenants[rng.Intn(len(tenants))]
				req := Request{
					Circuit: circuitsPool[rng.Intn(len(circuitsPool))],
					Tenant:  tenant,
					Options: RequestOptions{EstimatedBytes: estimates[rng.Intn(len(estimates))]},
				}
				j, err := m.Submit(req)
				switch {
				case err == nil:
					jobs = append(jobs, j)
					submittedPerTenant[tenant]++
				case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQueueFull):
					// Legitimate backpressure under the storm.
				default:
					t.Fatalf("op %d: %v", op, err)
				}
				// Random cancellations: sometimes the job just
				// submitted (the queued-cancel window), sometimes an
				// older one (likely running or terminal).
				if len(jobs) > 0 && rng.Intn(4) == 0 {
					victim := jobs[len(jobs)-1]
					if rng.Intn(2) == 0 {
						victim = jobs[rng.Intn(len(jobs))]
					}
					if err := m.Cancel(victim.ID); err != nil && !errors.Is(err, ErrNotFound) {
						t.Fatalf("cancel %s: %v", victim.ID, err)
					}
				}
				if op%10 == 9 {
					checkLedgerInvariants(t, m)
				}
			}

			// Every admitted job must terminate.
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			for _, j := range jobs {
				if _, err := m.Wait(ctx, j.ID); err != nil {
					t.Fatalf("job %s never terminated: %v", j.ID, err)
				}
			}
			checkLedgerInvariants(t, m)
			m.mu.Lock()
			if m.admitted != 0 {
				t.Errorf("drained scheduler still holds %d admitted bytes", m.admitted)
			}
			if m.queuedTotal != 0 {
				t.Errorf("drained scheduler still has %d queued jobs", m.queuedTotal)
			}
			m.mu.Unlock()
			// No tenant starved: every tenant that submitted saw
			// terminal jobs.
			_, _, tenantJobs, _, _ := m.metrics.snapshot()
			for tenant, n := range submittedPerTenant {
				if n == 0 {
					continue
				}
				var finished int64
				for _, c := range tenantJobs[tenant] {
					finished += c
				}
				if finished == 0 {
					t.Errorf("tenant %s submitted %d jobs but finished none", tenant, n)
				}
			}
		})
	}
}

// TestAdmittedBytesReleasedOnImmediateCancel is the regression test for
// the admission-ledger leak window: hammering submit + immediate
// DELETE (some jobs cancelled while queued, some after dispatch) must
// leave /metrics admitted_bytes at exactly 0 once everything settles —
// every reservation released exactly once.
func TestAdmittedBytesReleasedOnImmediateCancel(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, MemoryBudget: 1 << 30, QueueDepth: 256})
	doc := circuitDoc(t, circuits.ParitySuperposition(15))

	const clients, perClient = 4, 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp := postJSON(t, ts.URL+"/v1/jobs", Request{
					Circuit: doc,
					Options: RequestOptions{EstimatedBytes: 1 << 20},
				})
				if resp.StatusCode != http.StatusAccepted {
					resp.Body.Close()
					t.Errorf("submit status %d", resp.StatusCode)
					return
				}
				job := decodeBody[JobJSON](t, resp)
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
				r, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				r.Body.Close()
			}
		}()
	}
	wg.Wait()

	// Wait for the storm to settle: no queued or running jobs left.
	deadline := time.Now().Add(60 * time.Second)
	for {
		metrics := s.Metrics()
		busy := metrics.QueueDepth
		for _, tm := range metrics.Tenants {
			busy += tm.Running
		}
		if busy == 0 {
			if got := metrics.Budget.AdmittedBytes; got != 0 {
				t.Fatalf("admitted_bytes leaked: %d, want 0", got)
			}
			for name, tm := range metrics.Tenants {
				if tm.AdmittedBytes != 0 {
					t.Fatalf("tenant %s leaked %d admitted bytes", name, tm.AdmittedBytes)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("storm never settled: %+v", metrics)
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkLedgerInvariants(t, s.Manager())
}
