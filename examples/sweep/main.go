// Parameter sweep: the Simulation Layer's "Parameterized Simulations"
// feature. Defines a parameterized circuit family (a hardware-efficient
// ansatz), sweeps its rotation angle, and runs the whole family on
// multiple backends, comparing an observable across methods.
//
// The backends are built ONCE and reused across every sweep point —
// never rebuilt per point — and the SQL backend carries a plan cache:
// all sweep points share one SQL text (the circuits are structurally
// identical, only the rotation angles differ), so after the first
// point the translator only rebinds numeric gate tables. The cache
// counters printed at the end show it.
package main

import (
	"fmt"
	"log"
	"math"

	"qymera"
)

func main() {
	const (
		qubits = 6
		layers = 2
		steps  = 10
	)

	family := func(theta float64) *qymera.Circuit {
		params := make([]float64, qubits*layers*2)
		for i := range params {
			params[i] = theta * (1 + 0.1*float64(i%5))
		}
		return qymera.HardwareEfficientAnsatz(qubits, layers, params)
	}

	// One backend per method for the whole sweep. The plan cache makes
	// repeat translation work vanish: every point after the first is a
	// structural hit (same SQL, different angles).
	cache := qymera.NewPlanCache(16)
	backends := map[string]qymera.Backend{
		"sql":         qymera.NewSQLBackend(qymera.SQLBackendOptions{PlanCache: cache}),
		"statevector": qymera.NewStateVectorBackend(),
		"mps":         qymera.NewMPSBackend(),
	}

	fmt.Printf("sweeping θ over %d steps for a %d-qubit, %d-layer ansatz\n\n", steps, qubits, layers)
	fmt.Printf("%-8s  %-14s  %-14s  %-14s  %s\n", "θ", "P(q0=1) sql", "statevector", "mps", "max |Δ|")

	for s := 0; s < steps; s++ {
		theta := (float64(s) + 0.5) * math.Pi / steps
		c := family(theta)

		probs := map[string]float64{}
		for name, b := range backends {
			res, err := b.Run(c)
			if err != nil {
				log.Fatalf("%s at θ=%.3f: %v", name, theta, err)
			}
			probs[name] = res.State.QubitProbability(0)
		}
		maxDelta := math.Max(
			math.Abs(probs["sql"]-probs["statevector"]),
			math.Abs(probs["mps"]-probs["statevector"]))
		fmt.Printf("%-8.3f  %-14.6f  %-14.6f  %-14.6f  %.2e\n",
			theta, probs["sql"], probs["statevector"], probs["mps"], maxDelta)
	}

	st := cache.Stats()
	fmt.Printf("\nplan cache: %d misses, %d structural hits, %d exact hits over %d points\n",
		st.Misses, st.StructuralHits, st.Hits, steps)
	kc := qymera.KernelCounters()
	fmt.Printf("gate kernels: %d compiles, %d cache hits, %d chain runs over %d stages (%d fallbacks)\n",
		kc["compiles"], kc["cache_hits"], kc["chain_executions"], kc["chain_stages"], kc["fallbacks"])
	fmt.Println("all three methods agree on the observable across the whole family")
}
