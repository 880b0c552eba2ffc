// Command shaped is the shape-analysis daemon: an HTTP/JSON service
// exposing the RSRSG analysis (/analyze) and the memory-safety
// checkers (/check) over one shared persistent store (DESIGN.md §15).
//
// Usage:
//
//	shaped [flags]
//
//	-addr A             listen address (default 127.0.0.1:7411)
//	-cache-dir D        persistent analysis store directory; requests
//	                    share one store handle, so repeat submissions
//	                    warm-start and edits re-analyze delta-only.
//	                    Empty runs storeless.
//	-workers N          concurrent requests (default GOMAXPROCS)
//	-queue N            waiting requests beyond the workers before the
//	                    service answers 429 (default 2*workers)
//	-timeout D          default per-request analysis timeout (30s)
//	-max-timeout D      ceiling on requested timeouts (2m)
//	-max-visits N       ceiling on requested visit budgets (200000)
//	-max-node-budget N  ceiling on requested node budgets (0 = none)
//
// SIGINT/SIGTERM drains: the listener closes, in-flight requests run
// to completion, then the store is closed and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7411", "listen address")
	cacheDir := flag.String("cache-dir", "", "persistent analysis store directory (empty = storeless)")
	workers := flag.Int("workers", 0, "concurrent requests (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "queued requests beyond the workers (0 = 2*workers)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request analysis timeout")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "ceiling on requested timeouts")
	maxVisits := flag.Int("max-visits", 200000, "ceiling on requested visit budgets")
	maxNodeBudget := flag.Int("max-node-budget", 0, "ceiling on requested node budgets (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", time.Minute, "shutdown drain deadline")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: shaped [flags]\n")
		flag.PrintDefaults()
		os.Exit(2)
	}

	log.SetPrefix("shaped: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	cfg := service.Config{
		Workers:        *workers,
		Queue:          *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxVisits:      *maxVisits,
		MaxNodeBudget:  *maxNodeBudget,
	}
	if *cacheDir != "" {
		if err := os.MkdirAll(*cacheDir, 0o755); err != nil {
			log.Fatalf("cache dir: %v", err)
		}
		path := filepath.Join(*cacheDir, "shape.rsgstore")
		st, err := store.Open(path)
		if err != nil {
			log.Fatalf("opening store: %v", err)
		}
		defer st.Close()
		cfg.Store = st
		log.Printf("store %s open (exclusive writer)", path)
	}

	svc := service.New(cfg)
	srv := &http.Server{Addr: *addr, Handler: svc}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	rcfg := svc.Config()
	log.Printf("listening on %s (workers=%d queue=%d timeout=%v/%v max-visits=%d)",
		*addr, rcfg.Workers, rcfg.Queue, rcfg.DefaultTimeout, rcfg.MaxTimeout, rcfg.MaxVisits)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Printf("%v: draining (deadline %v)", sig, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("drain: %v", err)
			os.Exit(1)
		}
		log.Printf("drained")
	case err := <-errc:
		log.Fatalf("serve: %v", err)
	}
}
