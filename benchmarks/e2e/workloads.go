package main

import (
	"fmt"
	"math"
	"math/rand"

	"qymera/internal/circuits"
	"qymera/internal/quantum"
	"qymera/internal/sim"
)

// workload is one fixed, seeded job list and the way it is submitted.
// The names and sizes are frozen: later changes quote them.
type workload struct {
	name string
	// jobs is the length of each client's job list. A pass cycles over
	// the list until its time is up; the sizes are the ones ISSUE 11
	// fixed, each at least what ten seconds consume at the seed commit.
	jobs int
	// clients is the number of closed-loop callers: 1 for a library
	// user calling Backend.Run, 2 (this box's core count) for the
	// service.
	clients int
	// service submits through the real qymerad binary; otherwise jobs
	// run in-process on newBackend().
	service bool
	// newBackend builds the SQL backend under test. For the service
	// workload it is the in-process twin the traced pass replays on
	// (the server's defaults: a shared plan cache, no budget).
	newBackend func() *sim.SQL
	// next draws the next job's circuit. fixed holds the circuits that
	// repeat, built once per set-up so repeats share one oracle state.
	fixed func() []*quantum.Circuit
	next  func(rng *rand.Rand, fixed []*quantum.Circuit) *quantum.Circuit
}

// warmShare of each job list runs untimed before a pass.
const warmShare = 0.05

func (w *workload) warmJobs() int { return int(math.Ceil(warmShare * float64(w.jobs))) }

func single(build func() *quantum.Circuit) (func() []*quantum.Circuit, func(*rand.Rand, []*quantum.Circuit) *quantum.Circuit) {
	return func() []*quantum.Circuit { return []*quantum.Circuit{build()} },
		func(_ *rand.Rand, fixed []*quantum.Circuit) *quantum.Circuit { return fixed[0] }
}

// ansatz draws a HardwareEfficientAnsatz with every angle fresh from
// rng, uniform in [0, 2π).
func ansatz(rng *rand.Rand, n, layers int) *quantum.Circuit {
	theta := make([]float64, layers*n*2)
	for i := range theta {
		theta[i] = rng.Float64() * 2 * math.Pi
	}
	return circuits.HardwareEfficientAnsatz(n, layers, theta)
}

// spillBudget is a fixed byte count, about a quarter of the 756 KB the
// engine peaks at on H^⊗12 without a budget.
const spillBudget = 192 << 10

func workloads() []*workload {
	floor := &workload{name: "floor.ghz16", jobs: 6000, clients: 1,
		newBackend: func() *sim.SQL { return &sim.SQL{} }}
	floor.fixed, floor.next = single(func() *quantum.Circuit { return circuits.GHZ(16) })

	dense := &workload{name: "dense.qft12", jobs: 1000, clients: 1,
		newBackend: func() *sim.SQL { return &sim.SQL{} }}
	dense.fixed, dense.next = single(func() *quantum.Circuit { return circuits.QFT(12) })

	spill := &workload{name: "spill.superpos12", jobs: 200, clients: 1,
		newBackend: func() *sim.SQL { return &sim.SQL{MemoryBudget: spillBudget} }}
	spill.fixed, spill.next = single(func() *quantum.Circuit { return circuits.EqualSuperposition(12) })

	sweep := &workload{name: "sweep.hea10x4", jobs: 600, clients: 1,
		newBackend: func() *sim.SQL { return &sim.SQL{Cache: sim.NewPlanCache(64)} },
		fixed:      func() []*quantum.Circuit { return nil },
		next:       func(rng *rand.Rand, _ []*quantum.Circuit) *quantum.Circuit { return ansatz(rng, 10, 4) }}

	mix := &workload{name: "service.mix", jobs: 2000, clients: 2, service: true,
		newBackend: func() *sim.SQL { return &sim.SQL{Cache: sim.NewPlanCache(0)} },
		fixed: func() []*quantum.Circuit {
			return []*quantum.Circuit{circuits.GHZ(10), circuits.QFT(7), circuits.WState(12)}
		},
		// 70 % exact repeats of the fixed set, 30 % fresh-θ rebinds.
		next: func(rng *rand.Rand, fixed []*quantum.Circuit) *quantum.Circuit {
			if rng.Float64() < 0.7 {
				return fixed[rng.Intn(len(fixed))]
			}
			return ansatz(rng, 6, 2)
		}}

	return []*workload{floor, dense, spill, sweep, mix}
}

// job is one circuit with the state the independent oracle gives it.
type job struct {
	circuit *quantum.Circuit
	oracle  *quantum.State
}

// generate draws each client's job list from the seed alone and
// computes every distinct circuit's state on the dense state-vector
// simulator, which shares no code with the SQL backend.
func generate(w *workload, seed int64) ([][]job, error) {
	rng := rand.New(rand.NewSource(seed))
	fixed := w.fixed()
	oracle := &sim.StateVector{}
	states := map[*quantum.Circuit]*quantum.State{}
	lists := make([][]job, w.clients)
	for c := range lists {
		lists[c] = make([]job, w.jobs)
		for i := range lists[c] {
			circ := w.next(rng, fixed)
			st, ok := states[circ]
			if !ok {
				res, err := oracle.Run(circ)
				if err != nil {
					return nil, fmt.Errorf("oracle on %s: %w", circ.Name(), err)
				}
				st = res.State
				states[circ] = st
			}
			lists[c][i] = job{circuit: circ, oracle: st}
		}
	}
	return lists, nil
}

// Tolerances of the oracle check.
const (
	fidelityTol = 1e-9
	normTol     = 1e-9
)

// verify reports whether got is the oracle's state: fidelity at least
// 1 − 1e-9 and norm within 1e-9 of 1.
func verify(got, oracle *quantum.State) bool {
	if got == nil {
		return false
	}
	return got.Fidelity(oracle) >= 1-fidelityTol && math.Abs(got.Norm()-1) <= normTol
}
