// Command qymerad serves Qymera's simulation service over HTTP: a
// bounded worker pool with a FIFO job queue, admission control against
// a shared engine memory budget, a plan cache reused across requests,
// and engine-level cancellation (DELETE /v1/jobs/{id} aborts an
// in-flight gate-stage query at the next batch boundary).
//
// Usage:
//
//	qymerad                         # serve on :8087 with defaults
//	qymerad -addr :9000 -workers 8  # bigger pool
//	qymerad -mem-budget 2147483648  # 2 GiB shared engine budget
//	qymerad -data-dir /var/lib/qymera
//	                                # durable: append every job
//	                                # transition to a persistent log and
//	                                # replay it on restart (completed
//	                                # jobs stay queryable, interrupted
//	                                # ones re-run)
//	qymerad -tenant-max-running 2 -tenant-max-queued 32
//	                                # per-tenant quotas in front of the
//	                                # fair scheduler
//	qymerad -data-dir d -slow-query-ms 500 -debug-addr :6060
//	                                # observability: traces of jobs
//	                                # slower than 500ms land in
//	                                # d/slow_queries.ndjson, pprof serves
//	                                # on :6060 (GET /v1/jobs/{id}/trace
//	                                # has per-job span trees either way)
//
// The HTTP API is documented in docs/SERVICE.md; a quick check:
//
//	curl localhost:8087/healthz
//	curl -X POST localhost:8087/v1/simulate -d '{
//	  "circuit": {"num_qubits": 2,
//	              "gates": [{"name":"H","qubits":[0]},
//	                        {"name":"CX","qubits":[0,1]}]}}'
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints, served only on -debug-addr
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"qymera/internal/service"
)

func main() {
	addr := flag.String("addr", ":8087", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "job queue depth; submissions beyond it get HTTP 429")
	memBudget := flag.Int64("mem-budget", 0, "shared engine memory budget in bytes across all jobs (0 = unlimited)")
	planCache := flag.Int("plan-cache", 0, "plan cache capacity in translations (0 = default, negative disables)")
	spillDir := flag.String("spill-dir", "", "directory for out-of-core spill files (empty = OS temp)")
	retain := flag.Int("retain-jobs", 256, "finished jobs kept queryable")
	dataDir := flag.String("data-dir", "", "directory for the persistent job log; replayed on restart (empty = no durability)")
	tenantMaxRunning := flag.Int("tenant-max-running", 0, "per-tenant cap on concurrently running jobs (0 = none)")
	tenantMaxQueued := flag.Int("tenant-max-queued", 0, "per-tenant cap on queued jobs; beyond it submissions get HTTP 429 (0 = none)")
	tenantMaxBytes := flag.Int64("tenant-max-bytes", 0, "per-tenant cap on the sum of running jobs' estimated_bytes; estimates beyond it get HTTP 422 (0 = none)")
	tracing := flag.String("tracing", "", "span-tracing default: sampled (default), full, or off; per-request options.trace overrides")
	slowQueryMs := flag.Int("slow-query-ms", 0, "with -data-dir, append full traces of jobs at least this slow to slow_queries.ndjson (0 = off)")
	debugAddr := flag.String("debug-addr", "", "separate listen address for net/http/pprof profiling endpoints (empty = off)")
	flag.Parse()

	srv, err := service.Open(service.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		MemoryBudget:     *memBudget,
		PlanCacheSize:    *planCache,
		SpillDir:         *spillDir,
		RetainJobs:       *retain,
		DataDir:          *dataDir,
		TenantMaxRunning: *tenantMaxRunning,
		TenantMaxQueued:  *tenantMaxQueued,
		TenantMaxBytes:   *tenantMaxBytes,
		Tracing:          *tracing,
		SlowQueryMillis:  *slowQueryMs,
	})
	if err != nil {
		log.Fatalf("qymerad: %v", err)
	}
	if *dataDir != "" {
		rs := srv.Manager().Replay()
		log.Printf("qymerad: job log replayed %d records: %d completed jobs kept, %d re-enqueued, %d corrupt tail records skipped",
			rs.Records, rs.CompletedKept, rs.Requeued, rs.CorruptRecords)
	}

	if *debugAddr != "" {
		// pprof stays off the public mux: the profiling endpoints bind
		// their own address so exposing the API never exposes the
		// profiler. http.DefaultServeMux carries the net/http/pprof
		// handlers registered by the import's init.
		go func() {
			log.Printf("qymerad: pprof on %s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("qymerad: debug listener: %v", err)
			}
		}()
	}

	httpSrv := service.NewHTTPServer(*addr, srv)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	effectiveWorkers := *workers
	if effectiveWorkers <= 0 {
		effectiveWorkers = runtime.GOMAXPROCS(0)
	}
	errc := make(chan error, 1)
	go func() {
		log.Printf("qymerad: serving on %s (workers=%d, queue=%d, mem-budget=%d)",
			*addr, effectiveWorkers, *queue, *memBudget)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("qymerad: %v", err)
		}
	case <-ctx.Done():
		log.Print("qymerad: shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("qymerad: shutdown: %v", err)
		}
		srv.Close() // cancels queued + running jobs engine-level
	}
}
