package sim

import (
	"math/rand"
	"testing"

	"qymera/internal/circuits"
	"qymera/internal/quantum"
	"qymera/internal/sqlengine"
)

// benchRepeatJob times one repeated circuit on a default SQL backend,
// the shape of a job a service sees again and again: after the first
// run every statement is parsed and every kernel compiled, so the loop
// measures what a warm job still pays, allocations included.
func benchRepeatJob(b *testing.B, c *quantum.Circuit) {
	backend := &SQL{}
	if _, err := backend.Run(c); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Run(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLRepeatJobQFT12(b *testing.B) { benchRepeatJob(b, circuits.QFT(12)) }

func BenchmarkSQLRepeatJobGHZ16(b *testing.B) { benchRepeatJob(b, circuits.GHZ(16)) }

// BenchmarkSQLSweepJobHEA10x4 times a parameter-sweep job: HEA(10,4)
// with fresh angles per job on one backend, so every job is a
// structural plan-cache hit that rebinds new gate tables.
func BenchmarkSQLSweepJobHEA10x4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	theta := make([]float64, 4*10*2)
	job := func() *quantum.Circuit {
		for i := range theta {
			theta[i] = rng.Float64() * 6.28
		}
		return circuits.HardwareEfficientAnsatz(10, 4, theta)
	}
	backend := &SQL{}
	if _, err := backend.Run(job()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Run(job()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSQLRepeatJobCompilesNothing: a repeated QFT-12 job finds every
// gate-stage program in the kernel cache. Its single-stage bottom and
// 83 fused chain stages are 84 cache hits and no compile.
func TestSQLRepeatJobCompilesNothing(t *testing.T) {
	c := circuits.QFT(12)
	backend := &SQL{}
	if _, err := backend.Run(c); err != nil {
		t.Fatal(err)
	}
	sqlengine.ResetKernelCounters()
	if _, err := backend.Run(c); err != nil {
		t.Fatal(err)
	}
	kc := sqlengine.KernelCounters()
	if kc["compiles"] != 0 || kc["cache_hits"] != 84 {
		t.Fatalf("repeat QFT-12 job: compiles=%d cache_hits=%d, want 0 and 84 (%v)", kc["compiles"], kc["cache_hits"], kc)
	}
}
