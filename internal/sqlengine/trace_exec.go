package sqlengine

import (
	"time"

	"qymera/internal/obs"
)

// Tracing integration for statement execution. A statement whose
// context carries an obs span is instrumented with statNode wrappers — the same wrappers EXPLAIN
// ANALYZE uses, with a sampling stride taken from the trace so timing
// stays a small share of the work — and after execution the counters
// are attached to the span tree as one child span per operator. The
// span tree is therefore structural (shaped by the plan), never
// per-batch: the data changes timings but not the tree.

// spillMark snapshots the engine's cumulative spill counters so a
// traced statement can attribute the delta to its own span. The
// engine runs one statement at a time per instance, so the delta is
// the statement's own spill traffic.
type spillMark struct {
	rows, bytes, files int64
}

func (ctx *execCtx) markSpill() spillMark {
	if ctx.span == nil {
		return spillMark{}
	}
	return spillMark{
		rows:  ctx.env.spilledRows.Load(),
		bytes: ctx.env.spilledBytes.Load(),
		files: ctx.env.spillFiles.Load(),
	}
}

// finishStatementSpan attaches the executed plan's operator spans and
// spill deltas to the statement's execute span (a kernel run records
// its own "kernel-chain" span as it ends). No-op when the statement is
// untraced.
func (ctx *execCtx) finishStatementSpan(node planNode, rows int64, base spillMark) {
	sp := ctx.span
	if sp == nil {
		return
	}
	sp.Add("rows", rows)
	attachPlanSpans(sp, node)
	if d := ctx.env.spilledRows.Load() - base.rows; d > 0 {
		sp.Add("spilled_rows", d)
	}
	if d := ctx.env.spilledBytes.Load() - base.bytes; d > 0 {
		sp.Add("spilled_bytes", d)
	}
	if d := ctx.env.spillFiles.Load() - base.files; d > 0 {
		sp.Add("spill_files", d)
	}
}

// attachPlanSpans converts an executed instrumented plan into operator
// child spans. Each statNode becomes one span named after the operator
// it wraps; the span "duration" is the sampled NextBatch time scaled
// to the full batch count (an estimate, which is why the raw sampled
// figures ride along as counters).
func attachPlanSpans(parent *obs.Span, node planNode) {
	sn, ok := node.(*statNode)
	if !ok {
		// Uninstrumented subtree (e.g. the scan the kernel swapped in
		// over its result store) — keep descending; nested statNodes
		// attach to the same parent.
		for _, c := range planChildren(node) {
			attachPlanSpans(parent, c)
		}
		return
	}
	child := sn.child
	sp := parent.Child(operatorSpanName(child))
	batches := sn.batches
	sampled := sn.sampled
	nanos := sn.nanos
	est := nanos
	if sampled > 0 && batches > sampled {
		est = nanos * batches / sampled
	}
	sp.SetDuration(time.Duration(est))
	sp.Add("rows", sn.actual)
	sp.Add("batches", batches)
	sp.Add("sampled_batches", sampled)
	sp.Add("sampled_ns", nanos)
	if ss, ok := child.(*storeScanNode); ok && ss.kernel != "" {
		sp.Add("kernel_output", 1)
	}
	for _, c := range planChildren(child) {
		attachPlanSpans(sp, c)
	}
}

// operatorSpanName names one operator's span. Names depend only on the
// plan shape (never on the data), keeping the span tree
// deterministic for a fixed job.
func operatorSpanName(node planNode) string {
	switch n := node.(type) {
	case *oneRowNode:
		return "onerow"
	case *storeScanNode:
		qual := ""
		if len(n.cols) > 0 && n.cols[0].table != "" {
			qual = ":" + n.cols[0].table
		}
		return "scan" + qual
	case *filterNode:
		return "filter"
	case *projectNode:
		return "project"
	case *sliceProjectNode:
		return "strip"
	case *joinNode:
		return "join"
	case *aggNode:
		return "aggregate"
	case *sortNode:
		return "sort"
	case *limitNode:
		return "limit"
	case *aliasNode:
		return "alias:" + n.table
	case *materializeNode:
		return "scan:" + n.name
	default:
		return "operator"
	}
}
