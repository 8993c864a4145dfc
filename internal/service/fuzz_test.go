package service

import (
	"bytes"
	"net/http/httptest"
	"testing"
)

// FuzzSimulateRequest pushes arbitrary bytes through the same path an
// HTTP body takes — decodeRequest (JSON decode + tenant header
// override) then parseRequest (circuit document, backend, options, and
// tenant validation). The contract under fuzz: errors are fine, panics
// are bugs. Simulations are never run; this fuzzes parsing only.
func FuzzSimulateRequest(f *testing.F) {
	f.Add([]byte(`{"circuit":{"num_qubits":2,"gates":[{"name":"H","qubits":[0]},{"name":"CX","qubits":[0,1]}]}}`), "")
	f.Add([]byte(`{"circuit":{"num_qubits":1,"gates":[]},"backend":"mps","tenant":"a-b.c_d"}`), "team-9")
	f.Add([]byte(`{"circuit":{"num_qubits":3,"gates":[{"name":"RZ","qubits":[2],"params":[0.5]}]},"options":{"mode":"materialized-chain","fusion":"subset","encoding":"arithmetic","estimated_bytes":1024}}`), "")
	f.Add([]byte(`{"circuit":{"num_qubits":0,"gates":null}}`), "")
	f.Add([]byte(`{"circuit":"not an object"}`), "")
	f.Add([]byte(`{"circuit":{"num_qubits":2,"gates":[{"name":"CX","qubits":[0,0]}]}}`), "")
	f.Add([]byte(`{"circuit":{"num_qubits":-5}}`), "\x00")
	f.Add([]byte(`{`), "")
	f.Add([]byte(`[]`), "")
	f.Add([]byte(``), "tenant/with/slashes")

	f.Fuzz(func(t *testing.T, body []byte, tenant string) {
		if len(body) > 1<<16 {
			return // bound fuzz cost; the interesting shapes are small
		}
		r := httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(body))
		if tenant != "" {
			// Header.Set panics on invalid header values in some Go
			// versions only at write time, not set time, so this is safe
			// — and the override path must canonicalize whatever arrives.
			r.Header["X-Qymera-Tenant"] = []string{tenant}
		}
		req, err := decodeRequest(httptest.NewRecorder(), r)
		if err != nil {
			return
		}
		parsed, err := parseRequest(req)
		if err != nil {
			return
		}
		// Accepted requests must have passed canonicalization.
		if parsed.circuit == nil {
			t.Fatal("parseRequest returned nil circuit without error")
		}
		if parsed.tenant == "" {
			t.Fatal("parseRequest returned empty tenant without error")
		}
		if _, err := canonicalTenant(parsed.tenant); err != nil {
			t.Fatalf("accepted tenant %q fails its own validation: %v", parsed.tenant, err)
		}
		if parsed.estimate < 0 {
			t.Fatalf("accepted negative estimate %d", parsed.estimate)
		}
	})
}
