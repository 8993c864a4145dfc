// Package sim defines the common simulation-backend interface of
// Qymera's Simulation Layer and its "Method Selector": every simulation
// method — the RDBMS/SQL backend, dense state vector, sparse map, matrix
// product state, and decision diagram — implements Backend, so circuits
// can be executed and benchmarked uniformly across methods.
package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"qymera/internal/quantum"
)

// ErrMemoryBudget is returned by a backend whose memory requirement
// exceeds the configured budget. The benchmarking harness uses it to
// find the largest circuit a method can simulate under a cap (the
// paper's preliminary experiment).
var ErrMemoryBudget = errors.New("sim: memory budget exceeded")

// Stats captures per-run metrics reported by every backend.
type Stats struct {
	Backend   string
	WallTime  time.Duration
	GateCount int
	// PeakBytes is the backend's own estimate of its peak working-set
	// size in bytes (state representation plus transient buffers).
	PeakBytes int64
	// FinalNonzeros is the support size of the final state.
	FinalNonzeros int
	// MaxIntermediateSize is the largest intermediate representation
	// observed: nonzero rows (SQL/sparse), amplitudes (dense), tensor
	// elements (MPS), or nodes (DD).
	MaxIntermediateSize int64
	// SpilledRows counts rows written to disk (SQL backend only).
	SpilledRows int64
	// Extra carries backend-specific notes, e.g. "maxBond=7".
	Extra string
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %v, peak=%dB, final=%d, maxInter=%d",
		s.Backend, s.WallTime, s.PeakBytes, s.FinalNonzeros, s.MaxIntermediateSize)
}

// Result is a completed simulation: the final state plus metrics.
type Result struct {
	State *quantum.State
	Stats Stats
}

// Backend is one simulation method.
type Backend interface {
	// Name identifies the method in benchmark reports.
	Name() string
	// Run simulates the circuit from |0...0⟩ (or the backend's
	// configured initial state) and returns the final state.
	Run(c *quantum.Circuit) (*Result, error)
	// RunContext is Run with cancellation: when ctx is cancelled the
	// simulation aborts early — the in-memory backends between gates,
	// the SQL backend additionally inside a gate stage at the engine's
	// batch boundaries — releasing all resources, and returns an
	// error wrapping ctx.Err(). Run is RunContext with a background
	// context.
	RunContext(ctx context.Context, c *quantum.Circuit) (*Result, error)
}

// ctxErr adapts a context error into the backends' error style; nil in,
// nil out.
func ctxErr(name string, ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%s: simulation cancelled: %w", name, err)
	}
	return nil
}

// pruneEpsDefault is the amplitude magnitude below which sparse
// representations drop basis states; it matches the translator's default
// pruning threshold.
const pruneEpsDefault = 1e-12
