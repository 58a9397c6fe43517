// Command protoclustd serves protocol field-type clustering as a
// long-running HTTP/JSON service: clients submit trace-analysis jobs
// (built-in generated traces or uploaded pcap captures), poll their
// status, fetch results, and cancel runs. Jobs execute on a bounded
// worker pool with per-job deadlines; identical submissions are served
// from a content-addressed result cache.
//
// Usage:
//
//	protoclustd -addr :8077 -workers 4 -default-timeout 2m -cache-dir /var/cache/protoclust
//
// With -jobstore the queue is durable: accepted jobs survive restarts
// and crashes and resume on the next start. With -distributed the
// daemon becomes a coordinator that shards the O(n²) matrix builds to
// stateless protoclust-worker processes and assembles their results.
//
// See docs/service.md for the API reference and a curl walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"protoclust/internal/jobstore"
	"protoclust/internal/service"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "protoclustd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("protoclustd", flag.ContinueOnError)
	var (
		addr         = fs.String("addr", ":8077", "listen address")
		workers      = fs.Int("workers", 2, "concurrent analysis workers")
		queueSize    = fs.Int("queue", 64, "max queued jobs before submits are rejected with 429")
		defTimeout   = fs.Duration("default-timeout", 5*time.Minute, "per-job deadline for jobs without their own (0 = unbounded)")
		grace        = fs.Duration("grace", 10*time.Second, "shutdown drain period for running jobs")
		cacheEntries = fs.Int("cache-entries", 128, "in-memory result cache entries")
		cacheDir     = fs.String("cache-dir", "", "directory for the result-cache disk spill (empty = memory only)")
		spillDir     = fs.String("spill-dir", "", "scratch directory for the tiled matrix backend (default: <cache-dir>/tiles)")
		jobstorePath = fs.String("jobstore", "", "path of the persistent job log; queued jobs survive restarts (empty = memory only)")
		distributed  = fs.Bool("distributed", false, "shard matrix builds to protoclust-worker processes instead of computing in-process")
		leaseTTL     = fs.Duration("lease-ttl", 0, "shard lease duration in distributed mode (0 = 30s default)")
		shardTiles   = fs.Int("shard-tiles", 0, "64x64 tiles per leased shard (0 = 16 default)")
		distMin      = fs.Int("distribute-min", 0, "minimum unique-segment pool size to distribute; smaller pools compute locally")
		verbose      = fs.Bool("v", false, "debug-level logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var store *jobstore.Store
	if *jobstorePath != "" {
		var err error
		store, err = jobstore.Open(*jobstorePath)
		if err != nil {
			return err
		}
		defer func() {
			// Close after Shutdown has appended the final records; a close
			// error at exit has nothing left to corrupt (appends fsync).
			_ = store.Close()
		}()
		logger.Info("job store open", "path", store.Path())
	}

	svc := service.New(service.Config{
		Workers:        *workers,
		QueueSize:      *queueSize,
		DefaultTimeout: *defTimeout,
		CacheEntries:   *cacheEntries,
		CacheDir:       *cacheDir,
		SpillDir:       *spillDir,
		JobStore:       store,
		Distributed:    *distributed,
		LeaseTTL:       *leaseTTL,
		TilesPerShard:  *shardTiles,
		DistributeMin:  *distMin,
		Logger:         logger,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	//lint:ignore goroleak the listener goroutine ends when srv.ListenAndServe returns, which srv.Shutdown below forces during the signal-driven teardown; errc is buffered so the send never blocks
	go func() {
		logger.Info("listening", "addr", *addr, "workers", *workers, "queue", *queueSize)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// Listen failed outright; stop the idle worker pool before
		// reporting.
		stopCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		// Best-effort drain; the listen error is what gets reported.
		_ = svc.Shutdown(stopCtx)
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: stop accepting connections, then drain running
	// jobs for up to the grace period; queued jobs fail retryable.
	logger.Info("signal received; shutting down", "grace", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "err", err)
	}
	if err := svc.Shutdown(shutdownCtx); err != nil {
		return err
	}
	logger.Info("shutdown complete")
	return nil
}
