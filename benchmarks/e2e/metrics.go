package main

// metricDef names one metric and its unit. The lists below are the
// harness's half of the contract BENCHMARK.json states; a unit test
// holds the two together.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees. Every timed run
// (-trace 0) reports all of them.
var endToEnd = []metricDef{
	{"job_p50_ms", "ms"},
	{"jobs_per_s", "1/s"},
	{"peak_bytes", "bytes"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, named after the module
// they time or count. Every traced run (-trace 1) reports all of them;
// one that does not apply to the workload reads 0 with 0 samples.
var perLayer = []metricDef{
	// Diagnostics of the whole job that carry no bound.
	{"job_p95_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"job_tail_percentile", "count"},
	{"harness.trace_overhead", "ratio"},

	{"core.translate_ms", "ms"},
	{"core.rebind_ms", "ms"},
	{"core.sql_bytes", "bytes"},
	{"core.statements", "count"},

	{"plancache.exact_hit_ratio", "ratio"},
	{"plancache.struct_hit_ratio", "ratio"},
	{"sim.allocs_per_job", "count"},
	{"sim.alloc_bytes_per_job", "bytes"},
	{"sim.statevec_p50_ms", "ms"},
	{"sim.sparse_p50_ms", "ms"},
	{"sql_over_statevec", "ratio"},

	{"sqlengine.open_ms", "ms"},
	{"sqlengine.setup_exec_ms", "ms"},
	{"sqlengine.parse_ms", "ms"},
	{"sqlengine.plan_ms", "ms"},
	{"sqlengine.query_ms", "ms"},
	{"sqlengine.exec_ms", "ms"},
	{"sqlengine.emit_ms", "ms"},
	{"sqlengine.kernel.chain_stages", "count"},
	{"sqlengine.kernel.chain_elided", "count"},
	{"sqlengine.kernel.fallbacks", "count"},
	{"sqlengine.kernel.cache_hits", "count"},
	{"sqlengine.kernel.compiles", "count"},
	{"sqlengine.storage.morsels_skipped", "count"},
	{"sqlengine.storage.encoded_rle", "count"},
	{"sqlengine.storage.encoded_dict", "count"},
	{"sqlengine.storage.encoded_sparse", "count"},
	{"sqlengine.storage.encoded_chunk_cols", "count"},
	{"sqlengine.spilled_rows", "count"},
	{"sqlengine.spilled_bytes", "bytes"},
	{"sqlengine.spill_files", "count"},

	{"circuitio.encode_ms", "ms"},
	{"circuitio.decode_ms", "ms"},
	{"service.request_bytes", "bytes"},
	{"service.response_bytes", "bytes"},
	{"service.overhead_ms", "ms"},
	{"service.overhead_share", "ratio"},
	{"service.log_records_per_job", "count"},
}

// metric is one measured value.
type metric struct {
	Value   float64
	Samples int
}

// metricSet collects a run's metrics by name. set panics on a name the
// lists above do not carry, so a misspelt metric fails the unit tests
// and never reaches a report.
type metricSet map[string]metric

func unitOf(name string) (string, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit, true
			}
		}
	}
	return "", false
}

func (m metricSet) set(name string, value float64, samples int) {
	if _, ok := unitOf(name); !ok {
		panic("e2e: metric " + name + " is not declared in metrics.go")
	}
	m[name] = metric{Value: value, Samples: samples}
}

// setMedian records the median of xs with its sample count.
func (m metricSet) setMedian(name string, xs []float64) {
	m.set(name, median(xs), len(xs))
}
