package sim

import (
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/quantum"
)

// TestSQLEncodingsBitIdenticalAmplitudes asserts the sparsity-first
// storage tier's correctness invariant at the simulation level: the SQL
// backend produces bitwise-identical amplitudes with encodings on and
// off, with the kernel tier on and off, at one and at four workers, in
// both translation modes. The encoding is exact (see
// internal/sqlengine/encoding.go), so only the storage footprint and
// throughput change.
func TestSQLEncodingsBitIdenticalAmplitudes(t *testing.T) {
	workloads := []struct {
		name string
		c    *quantum.Circuit
		mode core.Mode
	}{
		// GHZ keeps 2 nonzeros in a 2^12 space: the sparse regime where
		// amplitude columns sparse-encode.
		{"ghz", circuits.GHZ(12), core.SingleQuery},
		{"qft", circuits.QFT(7), core.SingleQuery},
		// 2^15 nonzero amplitudes: spans several morsels, so parallel
		// runs exercise the morsel scan and encoded kernels.
		{"parity", circuits.ParitySuperposition(15), core.SingleQuery},
		// Per-gate CTAS materialization: every intermediate state table
		// freezes (and encodes) before the next stage scans it.
		{"ghz-chain", circuits.GHZ(10), core.MaterializedChain},
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			var ref *quantum.State
			for _, encodings := range []string{"on", "off"} {
				for _, kernels := range []string{"on", "off"} {
					for _, workers := range []int{1, 4} {
						b := &SQL{Mode: wl.mode, Encodings: encodings, Kernels: kernels, Parallelism: workers}
						res, err := b.Run(wl.c)
						if err != nil {
							t.Fatalf("encodings=%s kernels=%s workers=%d: %v", encodings, kernels, workers, err)
						}
						if ref == nil {
							ref = res.State
							continue
						}
						if err := statesBitIdentical(ref, res.State); err != nil {
							t.Fatalf("encodings=%s kernels=%s workers=%d: %v", encodings, kernels, workers, err)
						}
					}
				}
			}
		})
	}
}

// TestSQLEncodingsBitIdenticalUnderBudget pins the invariant on the
// out-of-core path: with a budget that forces state tables through
// spill chunks, encodings on and off still agree bit-for-bit.
func TestSQLEncodingsBitIdenticalUnderBudget(t *testing.T) {
	c := circuits.ParitySuperposition(13)
	var ref *quantum.State
	for _, encodings := range []string{"on", "off"} {
		b := &SQL{
			Mode:         core.MaterializedChain,
			Encodings:    encodings,
			MemoryBudget: 256 << 10,
			SpillDir:     t.TempDir(),
			Parallelism:  1,
		}
		res, err := b.Run(c)
		if err != nil {
			t.Fatalf("encodings=%s: %v", encodings, err)
		}
		if res.Stats.SpilledRows == 0 {
			t.Fatalf("encodings=%s: run never spilled — budget too generous for the workload", encodings)
		}
		if ref == nil {
			ref = res.State
			continue
		}
		if err := statesBitIdentical(ref, res.State); err != nil {
			t.Fatalf("encodings=%s: %v", encodings, err)
		}
	}
}
