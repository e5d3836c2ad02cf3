// Command uveserve runs the content-addressed simulation service: an
// HTTP/JSON daemon that fingerprints submitted (kernel, variant, size,
// config) jobs by the SHA-256 of their canonical program encoding plus
// canonical machine configuration, serves repeats from a persistent
// on-disk result store, and simulates only what the store has never seen.
// Response bodies are versioned report documents (internal/report) whose
// bytes are a pure function of the job's content, so concurrent clients —
// and clients of a restarted daemon — receive byte-identical reports.
//
// Usage:
//
//	uveserve -addr :8931 -store /var/lib/uveserve
//	uveserve -addr 127.0.0.1:0 -addr-file /tmp/uveserve.addr   # smoke tests
//
// Endpoints (see internal/serve):
//
//	POST /v1/jobs           submit a spec or {"jobs": [...]}; ?wait=1 blocks
//	GET  /v1/jobs/{id}      status; /report raw payload; /stream NDJSON progress
//	POST /v1/jobs/{id}/cancel
//	GET  /v1/stats          store hit/miss, executions, fingerprint builds,
//	                        rate-limit counters
//	GET  /v1/healthz        ok | draining
//
// SIGTERM/SIGINT drains gracefully: in-flight simulations finish (bounded
// by -drain-timeout), queued and new jobs are rejected with a retriable
// status, then the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8931", "listen address (port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening (readiness signal for scripts)")
	storeDir := flag.String("store", "", "result store directory (required)")
	workers := flag.Int("j", 2, "concurrent simulations")
	queueLen := flag.Int("queue", 64, "submitted-job backlog bound")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job execution bound (0 = none)")
	rate := flag.Float64("rate", 0, "per-client token refill rate, requests/sec (0 with -burst 0 disables limiting)")
	burst := flag.Float64("burst", 0, "per-client token bucket depth")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before canceling them")
	flag.Parse()

	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "uveserve: -store is required")
		os.Exit(2)
	}
	st, err := store.Open(*storeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uveserve:", err)
		os.Exit(1)
	}
	srv, err := serve.New(serve.Config{
		Store: st, Workers: *workers, QueueLen: *queueLen,
		JobTimeout: *jobTimeout, Rate: *rate, Burst: *burst,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "uveserve:", err)
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "uveserve:", err)
		os.Exit(1)
	}
	if *addrFile != "" {
		// Write-then-rename so a watching script never reads a torn file.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "uveserve:", err)
			os.Exit(1)
		}
		if err := os.Rename(tmp, *addrFile); err != nil {
			fmt.Fprintln(os.Stderr, "uveserve:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintf(os.Stderr, "uveserve: listening on %s (store %s, %d workers)\n",
		ln.Addr(), *storeDir, *workers)

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "uveserve: %v: draining (in-flight jobs finish, new jobs rejected)\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		srv.Drain(ctx)
		// Stop the listener last so in-flight status polls kept working
		// during the drain.
		shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer shutCancel()
		_ = httpSrv.Shutdown(shutCtx)
		fmt.Fprintln(os.Stderr, "uveserve: drained, exiting")
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "uveserve:", err)
			os.Exit(1)
		}
	}
}
