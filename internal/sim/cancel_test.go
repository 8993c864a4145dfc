package sim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"qymera/internal/circuits"
	"qymera/internal/sqlengine"
)

// TestSQLBackendCancelReleasesEverything is the service tier's core
// safety property: cancelling in-flight SQL-backend simulations stops
// them within one batch of engine work and leaks neither goroutines nor
// memBudget reservations — for one job, and for four jobs sharing one
// backend and budget as qymerad's workers do.
func TestSQLBackendCancelReleasesEverything(t *testing.T) {
	// 2^16 nonzero amplitudes: each gate stage spans many batches, so
	// cancellation lands mid-query.
	circuit := circuits.ParitySuperposition(16)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			budget := sqlengine.NewMemBudget(0)
			b := &SQL{Budget: budget}

			// Uncancelled baseline so the cancelled attempt provably
			// stops early.
			begin := time.Now()
			if _, err := b.Run(circuit); err != nil {
				t.Fatal(err)
			}
			full := time.Since(begin)
			if used := budget.Used(); used != 0 {
				t.Fatalf("baseline run leaked %d budget bytes", used)
			}

			goroutines := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			errs := make(chan error, workers)
			for range workers {
				go func() {
					_, err := b.RunContext(ctx, circuit)
					errs <- err
				}()
			}
			time.Sleep(full / 8)
			cancel()
			cancelled := 0
			for range workers {
				var err error
				select {
				case err = <-errs:
				case <-time.After(30 * time.Second):
					t.Fatal("cancelled simulation did not return")
				}
				if err != nil && !errors.Is(err, context.Canceled) {
					t.Fatalf("want context.Canceled (or success), got %v", err)
				}
				if err != nil {
					cancelled++
				}
			}
			if used := budget.Used(); used != 0 {
				t.Fatalf("cancelled runs leaked %d budget bytes", used)
			}
			waitForGoroutineBaseline(t, goroutines)
			if cancelled == 0 {
				t.Skip("every simulation finished before cancellation landed")
			}
		})
	}
}

// TestAllBackendsHonourCancellation runs every backend with an
// already-cancelled context: each must fail fast with ctx.Err().
func TestAllBackendsHonourCancellation(t *testing.T) {
	c := circuits.QFT(6)
	backends := []Backend{
		&SQL{}, &StateVector{}, &Sparse{}, &MPS{}, &DD{},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, b := range backends {
		if _, err := b.RunContext(ctx, c); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: want context.Canceled, got %v", b.Name(), err)
		}
	}
}

// waitForGoroutineBaseline retries until the goroutine count returns to
// the baseline (goleak-style: the cancelled run's goroutine exits
// asynchronously, so poll with a deadline).
func waitForGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked after cancel: %d now vs %d before\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
