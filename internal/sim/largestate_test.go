package sim

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/quantum"
)

// TestSQLParallelismBitIdenticalAmplitudes: each query runs on one
// goroutine in one accumulation order, so jobs run side by side on one
// backend — the way qymerad's workers share it — give amplitudes
// bitwise-identical to the same job run alone.
func TestSQLParallelismBitIdenticalAmplitudes(t *testing.T) {
	workloads := []struct {
		name string
		c    *quantum.Circuit
	}{
		{"ghz", circuits.GHZ(12)},
		{"qft", circuits.QFT(7)},
		// 2^15 nonzero amplitudes: the state table spans several
		// cancellation strides.
		{"parity", circuits.ParitySuperposition(15)},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			b := &SQL{}
			ref, err := b.Run(wl.c)
			if err != nil {
				t.Fatal(err)
			}
			const jobs = 4
			states := make([]*quantum.State, jobs)
			errs := make([]error, jobs)
			var wg sync.WaitGroup
			for j := range jobs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := b.Run(wl.c)
					if err == nil {
						states[j] = res.State
					}
					errs[j] = err
				}()
			}
			wg.Wait()
			for j := range jobs {
				if errs[j] != nil {
					t.Fatalf("job %d: %v", j, errs[j])
				}
				if err := statesBitIdentical(ref.State, states[j]); err != nil {
					t.Fatalf("job %d of %d vs alone: %v", j, jobs, err)
				}
			}
		})
	}
}

// statesBitIdentical compares two sparse states exactly, down to the
// IEEE-754 bit patterns of each amplitude component.
func statesBitIdentical(a, b *quantum.State) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("nonzero counts differ: %d vs %d", a.Len(), b.Len())
	}
	for _, idx := range a.Indices() {
		aa, ba := a.Amplitude(idx), b.Amplitude(idx)
		if math.Float64bits(real(aa)) != math.Float64bits(real(ba)) ||
			math.Float64bits(imag(aa)) != math.Float64bits(imag(ba)) {
			return fmt.Errorf("amplitude at |%d⟩ differs: %v vs %v", idx, aa, ba)
		}
	}
	return nil
}

// TestSQLLargeStatesMatchStateVector checks the default SQL backend
// against the dense reference on states of 2^14 amplitudes, which span
// several of the fused loop's cancellation strides: a dense QFT and a
// two-layer hardware-efficient ansatz.
func TestSQLLargeStatesMatchStateVector(t *testing.T) {
	params := make([]float64, 2*14*2)
	for i := range params {
		params[i] = 0.3 + 0.07*float64(i)
	}
	for _, c := range []*quantum.Circuit{circuits.QFT(14), circuits.HardwareEfficientAnsatz(14, 2, params)} {
		ref, err := (&StateVector{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := (&SQL{}).Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if !ref.State.EqualApprox(res.State, 1e-9) {
			t.Fatalf("%s: SQL backend diverges from the state vector", c.Name())
		}
	}
}
