// Command protoclust-worker is the stateless compute half of a
// distributed protoclustd deployment: it polls a coordinator
// (protoclustd -distributed) for shard leases, computes the leased
// 64×64 dissimilarity tiles through the same batched Canberra kernels a
// local run uses, and posts each result back under its SHA-256 content
// address. Workers hold no durable state — start as many as there are
// spare cores, anywhere that can reach the coordinator, and kill them
// freely: a dead worker's leases expire and its shards are re-leased to
// the survivors, and the content addressing makes late or duplicated
// completions harmless.
//
// Usage:
//
//	protoclust-worker -coordinator http://localhost:8077 -id worker-a
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

	"protoclust/internal/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "protoclust-worker:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("protoclust-worker", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "http://localhost:8077", "coordinator base URL")
		id          = fs.String("id", "", "worker name in leases and logs (default: worker-<pid>)")
		poll        = fs.Duration("poll", 500*time.Millisecond, "idle wait between lease attempts")
		shardDelay  = fs.Duration("shard-delay", 0, "test aid: sleep after computing each shard before posting")
		verbose     = fs.Bool("v", false, "debug-level logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		*id = fmt.Sprintf("worker-%d", os.Getpid())
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	w := &shard.Worker{
		Coordinator: *coordinator,
		ID:          *id,
		Client:      &http.Client{Timeout: 5 * time.Minute},
		Poll:        *poll,
		ShardDelay:  *shardDelay,
		Log:         logger,
	}
	logger.Info("worker polling", "coordinator", *coordinator, "id", *id)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	logger.Info("worker stopped")
	return nil
}
