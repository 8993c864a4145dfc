package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"qymera/internal/circuitio"
	"qymera/internal/core"
	"qymera/internal/quantum"
	"qymera/internal/sim"
)

// Request is the JSON body of POST /v1/simulate and POST /v1/jobs.
type Request struct {
	// Circuit is the circuit document in the circuitio JSON format:
	// {"num_qubits": n, "gates": [{"name": "H", "qubits": [0]}, ...]}.
	Circuit json.RawMessage `json:"circuit"`
	// Backend selects the simulation method: sql (default), sql-chain,
	// statevec/statevector/sv, sparse, mps, or dd.
	Backend string `json:"backend,omitempty"`
	// Tenant attributes the job to a tenant for quota accounting and
	// fair scheduling. The X-Qymera-Tenant request header takes
	// precedence over this field; empty means the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Options tune the selected backend.
	Options RequestOptions `json:"options,omitempty"`

	// decodeDur is how long the HTTP layer spent reading and decoding
	// this request's body (set by decodeRequest; zero for in-process
	// submissions). Unexported so it never reaches the durable job log.
	decodeDur time.Duration
}

// RequestOptions are the per-request backend knobs. Unknown keys are
// ignored on decode, so requests and job logs that still carry the
// removed layout, optimizer, encodings, kernels, chain_fusion and
// parallelism options replay unchanged.
type RequestOptions struct {
	// Mode (sql backends): "single-query" (default) or
	// "materialized-chain".
	Mode string `json:"mode,omitempty"`
	// Fusion (sql backends): "off" (default), "same-qubits", "subset".
	Fusion string `json:"fusion,omitempty"`
	// Encoding (sql backends): "bitwise" (default) or "arithmetic".
	Encoding string `json:"encoding,omitempty"`
	// PruneEps: amplitude pruning threshold (0 = backend default,
	// negative disables pruning).
	PruneEps float64 `json:"prune_eps,omitempty"`
	// MaxBond (mps): bond-dimension cap, 0 = exact.
	MaxBond int `json:"max_bond,omitempty"`
	// Trace overrides the server's tracing default for this job: "off"
	// disables the span trace, "sampled" (or "on") times one operator
	// batch in obs.SampleDefault, "full" times every batch. Amplitudes
	// are bit-identical regardless.
	Trace string `json:"trace,omitempty"`
	// EstimatedBytes declares the job's expected peak engine memory for
	// admission control: the job is held in the queue while the sum of
	// running jobs' estimates plus this one would exceed the server's
	// shared memory budget, and rejected outright when it could never
	// fit. Zero admits immediately.
	EstimatedBytes int64 `json:"estimated_bytes,omitempty"`
}

// parsedRequest is a validated Request.
type parsedRequest struct {
	circuit  *quantum.Circuit
	backend  string // canonical backend name
	tenant   string // canonical tenant name ("default" when unset)
	options  RequestOptions
	estimate int64
}

// defaultTenant is the tenant jobs belong to when none is named.
const defaultTenant = "default"

// maxTenantLen bounds tenant names on the wire.
const maxTenantLen = 64

// canonicalTenant validates and canonicalizes a tenant name: empty
// means defaultTenant; otherwise [A-Za-z0-9._-]{1,64}.
func canonicalTenant(name string) (string, error) {
	name = strings.TrimSpace(name)
	if name == "" {
		return defaultTenant, nil
	}
	if len(name) > maxTenantLen {
		return "", fmt.Errorf("tenant name longer than %d bytes", maxTenantLen)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return "", fmt.Errorf("tenant name %q has invalid character %q (want [A-Za-z0-9._-])", name, r)
		}
	}
	return name, nil
}

// canonicalBackends maps accepted backend spellings to canonical names.
var canonicalBackends = map[string]string{
	"":            "sql",
	"sql":         "sql",
	"sql-chain":   "sql-chain",
	"statevec":    "statevector",
	"statevector": "statevector",
	"sv":          "statevector",
	"sparse":      "sparse",
	"mps":         "mps",
	"dd":          "dd",
}

// BackendNames lists the canonical backend names the service accepts.
func BackendNames() []string {
	return []string{"sql", "sql-chain", "statevector", "sparse", "mps", "dd"}
}

// maxQubits is the widest circuit any backend can hold: a basis index
// must fit a signed 64-bit integer (the SQL backend's INTEGER column
// and quantum.State alike).
const maxQubits = 63

// maxGates bounds a circuit's length before it is admitted: translating
// a million gates would build SQL text hundreds of MB long before any
// memory budget could see it. Translated workloads run to a few
// thousand gates (QFT-63 has about 2k).
const maxGates = 1 << 16

func parseRequest(req Request) (*parsedRequest, error) {
	if len(req.Circuit) == 0 {
		return nil, fmt.Errorf("request has no circuit")
	}
	c, err := circuitio.UnmarshalJSON(req.Circuit)
	if err != nil {
		return nil, err
	}
	if n := c.NumQubits(); n < 1 || n > maxQubits {
		return nil, fmt.Errorf("num_qubits %d outside [1, %d]", n, maxQubits)
	}
	if n := c.Len(); n > maxGates {
		return nil, fmt.Errorf("circuit has %d gates, over the limit of %d", n, maxGates)
	}
	backend, ok := canonicalBackends[strings.ToLower(req.Backend)]
	if !ok {
		return nil, fmt.Errorf("unknown backend %q (have %s)", req.Backend, strings.Join(BackendNames(), ", "))
	}
	if _, err := sqlOptions(req.Options); err != nil {
		return nil, err
	}
	if req.Options.EstimatedBytes < 0 {
		return nil, fmt.Errorf("estimated_bytes must be >= 0")
	}
	tenant, err := canonicalTenant(req.Tenant)
	if err != nil {
		return nil, err
	}
	return &parsedRequest{
		circuit:  c,
		backend:  backend,
		tenant:   tenant,
		options:  req.Options,
		estimate: req.Options.EstimatedBytes,
	}, nil
}

// sqlPlanOptions are the parsed SQL-backend translation options.
type sqlPlanOptions struct {
	mode     core.Mode
	fusion   core.FusionLevel
	encoding core.Encoding
}

// sqlOptions lowers the string-typed request options onto core's enums.
func sqlOptions(o RequestOptions) (so sqlPlanOptions, err error) {
	switch strings.ToLower(o.Mode) {
	case "", "single-query":
	case "materialized-chain":
		so.mode = core.MaterializedChain
	default:
		return so, fmt.Errorf("unknown mode %q (have single-query, materialized-chain)", o.Mode)
	}
	switch strings.ToLower(o.Fusion) {
	case "", "off":
	case "same-qubits":
		so.fusion = core.FusionSameQubits
	case "subset":
		so.fusion = core.FusionSubset
	default:
		return so, fmt.Errorf("unknown fusion %q (have off, same-qubits, subset)", o.Fusion)
	}
	switch strings.ToLower(o.Encoding) {
	case "", "bitwise":
	case "arithmetic":
		so.encoding = core.EncodingArithmetic
	default:
		return so, fmt.Errorf("unknown encoding %q (have bitwise, arithmetic)", o.Encoding)
	}
	if _, err := traceSampling(o.Trace); err != nil {
		return so, err
	}
	return so, nil
}

// newBackend constructs the simulation backend for one job. SQL
// backends share the manager's budget and plan cache.
func (m *Manager) newBackend(p *parsedRequest) (sim.Backend, error) {
	switch p.backend {
	case "sql", "sql-chain":
		so, err := sqlOptions(p.options)
		if err != nil {
			return nil, err
		}
		if p.backend == "sql-chain" {
			so.mode = core.MaterializedChain
		}
		return &sim.SQL{
			Mode:     so.mode,
			Fusion:   so.fusion,
			Encoding: so.encoding,
			PruneEps: p.options.PruneEps,
			SpillDir: m.cfg.SpillDir,
			Budget:   m.budget,
			Cache:    m.cache,
		}, nil
	case "statevector":
		return &sim.StateVector{}, nil
	case "sparse":
		return &sim.Sparse{PruneEps: p.options.PruneEps}, nil
	case "mps":
		return &sim.MPS{MaxBond: p.options.MaxBond}, nil
	case "dd":
		return &sim.DD{}, nil
	}
	return nil, fmt.Errorf("unknown backend %q", p.backend)
}

// Amplitude is one nonzero basis-state amplitude of a result, the unit
// of the NDJSON stream.
type Amplitude struct {
	S uint64  `json:"s"`
	R float64 `json:"r"`
	I float64 `json:"i"`
}

// StatsJSON mirrors sim.Stats for the wire.
type StatsJSON struct {
	Backend     string  `json:"backend"`
	WallSeconds float64 `json:"wall_seconds"`
	GateCount   int     `json:"gate_count"`
	// PeakBytes: for SQL backends served by qymerad this is the
	// SHARED budget pool's high-water mark (all jobs), not the
	// individual run's peak — see sim.SQL.Budget.
	PeakBytes           int64  `json:"peak_bytes"`
	FinalNonzeros       int    `json:"final_nonzeros"`
	MaxIntermediateSize int64  `json:"max_intermediate_size"`
	SpilledRows         int64  `json:"spilled_rows,omitempty"`
	Extra               string `json:"extra,omitempty"`
}

// ResultJSON is a completed simulation on the wire. Amplitudes are
// sorted by basis index; floats round-trip exactly through JSON
// (encoding/json emits shortest-form float64).
type ResultJSON struct {
	NumQubits  int         `json:"num_qubits"`
	Amplitudes []Amplitude `json:"amplitudes"`
	Stats      StatsJSON   `json:"stats"`
}

func statsJSON(st sim.Stats) StatsJSON {
	return StatsJSON{
		Backend:             st.Backend,
		WallSeconds:         st.WallTime.Seconds(),
		GateCount:           st.GateCount,
		PeakBytes:           st.PeakBytes,
		FinalNonzeros:       st.FinalNonzeros,
		MaxIntermediateSize: st.MaxIntermediateSize,
		SpilledRows:         st.SpilledRows,
		Extra:               st.Extra,
	}
}

func resultJSON(res *sim.Result) *ResultJSON {
	out := &ResultJSON{
		NumQubits:  res.State.NumQubits(),
		Amplitudes: stateAmplitudes(res.State),
		Stats:      statsJSON(res.Stats),
	}
	return out
}

// stateAmplitudes lists a state's nonzero amplitudes sorted by index
// (State.Indices returns ascending order).
func stateAmplitudes(st *quantum.State) []Amplitude {
	idx := st.Indices()
	out := make([]Amplitude, len(idx))
	for i, s := range idx {
		a := st.Amplitude(s)
		out[i] = Amplitude{S: s, R: real(a), I: imag(a)}
	}
	return out
}

// JobJSON is one job's status on the wire.
type JobJSON struct {
	ID        string `json:"id"`
	Status    string `json:"status"`
	Tenant    string `json:"tenant,omitempty"`
	Backend   string `json:"backend"`
	NumQubits int    `json:"num_qubits"`
	Gates     int    `json:"gates"`
	Error     string `json:"error,omitempty"`

	SubmittedAt  time.Time `json:"submitted_at"`
	QueueSeconds float64   `json:"queue_seconds"`
	RunSeconds   float64   `json:"run_seconds,omitempty"`

	Result *ResultJSON `json:"result,omitempty"`
}
