// Package qymera is a Go implementation of Qymera (SIGMOD-Companion
// '25): simulating quantum circuits by translating them to SQL and
// executing the queries on a relational engine.
//
// The package is a facade over the implementation packages:
//
//   - circuits are built with NewCircuit's fluent API, loaded from JSON
//     or an OpenQASM 2.0 subset, or taken from the built-in families
//     (GHZ, QFT, parity check, …);
//   - Translate turns a circuit into a SQL program (Fig. 2 of the
//     paper): state tables T(s, r, i), gate tables G(in_s, out_s, r, i),
//     and one join+group-by query per gate;
//   - Backends execute circuits: the RDBMS backend (NewSQLBackend) runs
//     the translation on an embedded relational engine — a vectorized
//     batch executor (column-major batches of ~1024 rows with selection
//     vectors, streaming hash join and hash aggregation, compiled
//     gate-stage kernels, out-of-core spilling) that runs each query on
//     one goroutine in one accumulation order, so amplitudes do not
//     depend on the machine's core count — alongside
//     state-vector, sparse, matrix-product-state, and decision-diagram
//     simulators for comparison;
//   - cmd/qybench regenerates the paper's experiments as tables, and
//     benchmarks/e2e measures end-to-end performance against
//     BENCHMARK.json.
//
// docs/ARCHITECTURE.md walks through the translation scheme, the
// executor, and the package map; docs/BENCHMARKS.md documents both
// benchmark tools.
//
// Quick start:
//
//	c := qymera.NewCircuit(3).H(0).CX(0, 1).CX(1, 2)
//	res, err := qymera.NewSQLBackend().Run(c)
//	fmt.Println(res.State.FormatKet()) // 0.7071|000⟩ + 0.7071|111⟩
package qymera

import (
	"fmt"
	"io"
	"strings"

	"qymera/internal/circuitio"
	"qymera/internal/circuits"
	"qymera/internal/core"
	"qymera/internal/obs"
	"qymera/internal/quantum"
	"qymera/internal/service"
	"qymera/internal/sim"
	"qymera/internal/sqlengine"
)

// Core circuit model types.
type (
	// Circuit is an ordered gate sequence over a qubit register.
	Circuit = quantum.Circuit
	// Gate is one operation of a circuit.
	Gate = quantum.Gate
	// State is a sparse quantum state (basis index → amplitude).
	State = quantum.State
	// Result is a completed simulation: final state plus metrics.
	Result = sim.Result
	// Stats carries per-run metrics (time, memory, intermediate sizes).
	Stats = sim.Stats
	// Backend is one simulation method.
	Backend = sim.Backend
	// Translation is the SQL program produced for a circuit.
	Translation = core.Translation
	// TranslateOptions configure circuit→SQL translation.
	TranslateOptions = core.Options
)

// Translation option values, re-exported from internal/core.
const (
	// SingleQuery emits one WITH-chained query for the whole circuit.
	SingleQuery = core.SingleQuery
	// MaterializedChain emits one CREATE TABLE AS SELECT per gate so
	// intermediate states are inspectable.
	MaterializedChain = core.MaterializedChain

	// FusionOff disables gate fusion; every gate is one SQL stage.
	FusionOff = core.FusionOff
	// FusionSameQubits fuses runs of gates on identical qubit tuples.
	FusionSameQubits = core.FusionSameQubits
	// FusionSubset additionally absorbs gates into adjacent gates on a
	// superset of their qubits.
	FusionSubset = core.FusionSubset

	// EncodingBitwise uses the paper's bitwise index expressions.
	EncodingBitwise = core.EncodingBitwise
	// EncodingArithmetic uses division/modulo index math (ablation).
	EncodingArithmetic = core.EncodingArithmetic
)

// ErrMemoryBudget is returned by backends whose memory requirement
// exceeds their configured budget.
var ErrMemoryBudget = sim.ErrMemoryBudget

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(n int) *Circuit { return quantum.NewCircuit(n) }

// ZeroState returns |0…0⟩ over n qubits.
func ZeroState(n int) *State { return quantum.ZeroState(n) }

// BasisState returns |index⟩ over n qubits.
func BasisState(n int, index uint64) *State { return quantum.BasisState(n, index) }

// Translate converts a circuit (and optional initial state; nil means
// |0…0⟩) into a SQL program.
func Translate(c *Circuit, initial *State, opts TranslateOptions) (*Translation, error) {
	return core.Translate(c, initial, opts)
}

// SQLBackendOptions configure the RDBMS simulation backend.
type SQLBackendOptions struct {
	// Mode: SingleQuery (default) or MaterializedChain.
	Mode core.Mode
	// Fusion is the gate-fusion optimization level.
	Fusion core.FusionLevel
	// Encoding selects bitwise (default) or arithmetic index math.
	Encoding core.Encoding
	// MemoryBudget caps the engine's in-memory bytes (0 = unlimited).
	MemoryBudget int64
	// SpillDir hosts out-of-core temp files ("" = OS temp dir).
	SpillDir string
	// DisableSpill makes budget overruns fail instead of spilling.
	DisableSpill bool
	// PlanCache, when non-nil, caches circuit→SQL translations across
	// Run calls: exact repeats skip translation entirely, parameter
	// sweeps reuse the SQL text and rebind only the numeric gate data.
	// One cache may be shared by many backends and used concurrently.
	PlanCache *PlanCache
	// Initial overrides the |0…0⟩ initial state.
	Initial *State
}

// NewSQLBackend returns the RDBMS-based simulator — the paper's
// contribution. Options may be omitted for defaults.
func NewSQLBackend(opts ...SQLBackendOptions) Backend {
	var o SQLBackendOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	return &sim.SQL{
		Mode:         o.Mode,
		Fusion:       o.Fusion,
		Encoding:     o.Encoding,
		MemoryBudget: o.MemoryBudget,
		SpillDir:     o.SpillDir,
		DisableSpill: o.DisableSpill,
		Cache:        o.PlanCache,
		Initial:      o.Initial,
	}
}

// PlanCache is an LRU cache of circuit→SQL translations with exact and
// structural (parameter-sweep) hit tiers; see SQLBackendOptions.
type PlanCache = sim.PlanCache

// PlanCacheStats snapshot a cache's hit/miss counters.
type PlanCacheStats = sim.PlanCacheStats

// NewPlanCache returns a plan cache holding at most capacity
// translations (<= 0 uses the default capacity). Safe for concurrent
// use and shareable across backends.
func NewPlanCache(capacity int) *PlanCache { return sim.NewPlanCache(capacity) }

// KernelCounters snapshots the engine's cumulative gate-stage
// kernel-tier counters (process-wide, across every engine instance):
// compiles, cache_hits, executions, fallbacks, and per-reason
// fallback_<reason> counts. Plans matching the translated gate-stage
// shape always run as compiled kernels; a fallback is a plan the
// interpreter ran instead.
func KernelCounters() map[string]int64 { return sqlengine.KernelCounters() }

// Simulation service (the system tier served by cmd/qymerad).

type (
	// Service is the concurrent simulation server: a bounded worker
	// pool with a FIFO job queue, admission control against a shared
	// engine memory budget, a shared plan cache, engine-level
	// cancellation, and an HTTP API (docs/SERVICE.md). It implements
	// http.Handler.
	Service = service.Server
	// ServiceConfig tunes a Service.
	ServiceConfig = service.Config
	// TraceSpan is one span of a job's trace (GET /v1/jobs/{id}/trace):
	// name, start offset and duration in microseconds, counters, and
	// child spans.
	TraceSpan = obs.SpanJSON
)

// NewService builds a ready-to-serve simulation service; serve it with
// net/http and stop it with Close. cmd/qymerad wraps it in a binary,
// and Client speaks its API.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// NewStateVectorBackend returns the dense 2^n state-vector simulator.
// budget (optional) caps amplitude memory in bytes.
func NewStateVectorBackend(budget ...int64) Backend {
	sv := &sim.StateVector{}
	if len(budget) > 0 {
		sv.MemoryBudget = budget[0]
	}
	return sv
}

// NewSparseBackend returns the hash-map sparse simulator.
func NewSparseBackend(budget ...int64) Backend {
	sp := &sim.Sparse{}
	if len(budget) > 0 {
		sp.MemoryBudget = budget[0]
	}
	return sp
}

// NewMPSBackend returns the matrix-product-state simulator. maxBond
// (optional) caps the bond dimension; 0 is exact.
func NewMPSBackend(maxBond ...int) Backend {
	m := &sim.MPS{}
	if len(maxBond) > 0 {
		m.MaxBond = maxBond[0]
	}
	return m
}

// NewDDBackend returns the decision-diagram simulator.
func NewDDBackend() Backend { return &sim.DD{} }

// BackendByName is the Method Selector: it returns a default-configured
// backend for "sql", "sql-chain", "statevector", "sparse", "mps", or
// "dd".
func BackendByName(name string) (Backend, error) {
	switch strings.ToLower(name) {
	case "sql":
		return NewSQLBackend(), nil
	case "sql-chain":
		return NewSQLBackend(SQLBackendOptions{Mode: MaterializedChain}), nil
	case "statevector", "sv":
		return NewStateVectorBackend(), nil
	case "sparse":
		return NewSparseBackend(), nil
	case "mps":
		return NewMPSBackend(), nil
	case "dd":
		return NewDDBackend(), nil
	}
	return nil, fmt.Errorf("qymera: unknown backend %q (have sql, sql-chain, statevector, sparse, mps, dd)", name)
}

// BackendNames lists the selectable simulation methods.
func BackendNames() []string {
	return []string{"sql", "sql-chain", "statevector", "sparse", "mps", "dd"}
}

// Built-in circuit families (the paper's demo workloads).

// GHZ prepares the n-qubit GHZ state (Fig. 2's running example).
func GHZ(n int) *Circuit { return circuits.GHZ(n) }

// EqualSuperposition applies H to every qubit (the dense workload).
func EqualSuperposition(n int) *Circuit { return circuits.EqualSuperposition(n) }

// ParityCheck builds the parity-check algorithm over the given input
// bits with one ancilla qubit.
func ParityCheck(bits []bool) *Circuit { return circuits.ParityCheck(bits) }

// ParitySuperposition entangles the ancilla with the parity of every
// input simultaneously.
func ParitySuperposition(k int) *Circuit { return circuits.ParitySuperposition(k) }

// QFT is the quantum Fourier transform.
func QFT(n int) *Circuit { return circuits.QFT(n) }

// WState prepares the n-qubit W state.
func WState(n int) *Circuit { return circuits.WState(n) }

// BernsteinVazirani builds the hidden-bitstring recovery circuit.
func BernsteinVazirani(secret []bool) *Circuit { return circuits.BernsteinVazirani(secret) }

// Grover builds the textbook Grover search (2–5 qubits).
func Grover(n int, marked uint64) *Circuit { return circuits.Grover(n, marked) }

// HardwareEfficientAnsatz builds the layered variational circuit.
func HardwareEfficientAnsatz(n, layers int, params []float64) *Circuit {
	return circuits.HardwareEfficientAnsatz(n, layers, params)
}

// NISQ noise via quantum trajectories: noisy circuits are sampled as
// pure-state circuit instances with random Pauli errors, so every
// backend (including SQL) simulates noise unchanged.
type (
	// PauliNoiseModel sets per-gate depolarizing error rates.
	PauliNoiseModel = circuits.PauliNoiseModel
	// TrajectoryRunner averages observables over noise trajectories.
	TrajectoryRunner = circuits.TrajectoryRunner
)

// Output Layer: analysis queries computed inside the RDBMS over a state
// table T(s, r, i) (as produced by a MaterializedChain translation).

// ProbabilityQuery returns SQL computing the measurement distribution
// of a state table, highest probability first.
func ProbabilityQuery(table string) string { return core.ProbabilityQuery(table) }

// NormQuery returns SQL computing Σ|a|² (1.0 for a valid state).
func NormQuery(table string) string { return core.NormQuery(table) }

// QubitProbabilityQuery returns SQL computing P(qubit q = 1).
func QubitProbabilityQuery(table string, q int) string {
	return core.QubitProbabilityQuery(table, q)
}

// MarginalQuery returns SQL computing the joint distribution over the
// given qubits.
func MarginalQuery(table string, qubits []int) (string, error) {
	return core.MarginalQuery(table, qubits)
}

// ExpectationZQuery returns SQL computing ⟨Z⊗…⊗Z⟩ over the qubits.
func ExpectationZQuery(table string, qubits []int) (string, error) {
	return core.ExpectationZQuery(table, qubits)
}

// Circuit I/O.

// ReadJSON parses the JSON circuit format.
func ReadJSON(r io.Reader) (*Circuit, error) { return circuitio.ReadJSON(r) }

// WriteJSON serializes a circuit as JSON.
func WriteJSON(w io.Writer, c *Circuit) error { return circuitio.WriteJSON(w, c) }

// ReadQASM parses an OpenQASM 2.0 subset.
func ReadQASM(src string) (*Circuit, error) { return circuitio.ReadQASM(src) }

// Draw renders a circuit as ASCII art.
func Draw(c *Circuit) string { return circuitio.Draw(c) }
