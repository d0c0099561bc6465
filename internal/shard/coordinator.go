// Coordinator side: dispatch jobs round-robin over the worker
// addresses and collect the shard trees.
package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"mrcc/internal/ctree"
)

// Options configures a coordinated sharded build.
type Options struct {
	// Addrs are the worker addresses ("host:port"); jobs are assigned
	// round-robin (job i → Addrs[i mod len]). Required.
	Addrs []string
	// Jobs are the shard work orders, one per shard. Shard indexes
	// are (re)assigned from slice order. Required.
	Jobs []Job
	// DistrustChecksums re-runs the full structural snapshot
	// validation on every received shard tree instead of trusting the
	// per-column checksums. Workers the caller spawned satisfy the
	// trust contract — a worker sends only a tree it built, or a
	// snapshot file it validated in full — so the default is the fast
	// path; workers at addresses the caller was handed may not, and
	// mrcc-shard -worker-addrs sets it for them.
	DistrustChecksums bool
}

// Stats reports what a coordinated build did.
type Stats struct {
	// ShardsBuilt is the number of shard trees received.
	ShardsBuilt int
	// BytesStreamed is the total snapshot bytes received from workers.
	BytesStreamed int64
	// Points is the shard trees' total point count.
	Points int
}

// dialTimeout bounds each worker dial.
const dialTimeout = 10 * time.Second

// Run executes the sharded build: every job is dispatched to a worker,
// at most len(opt.Addrs) jobs in flight, and the shard trees come back
// in shard order, unmerged. Their
// ctree.Union re-saves byte-identically to a serial build of the same
// rows, and core.Run clusters them as they are. On any shard
// failure the remaining connections are closed and the lowest-indexed
// failure comes back as a *WorkerError.
func Run(ctx context.Context, opt Options) ([]*ctree.Tree, Stats, error) {
	var stats Stats
	if len(opt.Jobs) == 0 {
		return nil, stats, fmt.Errorf("shard: no jobs")
	}
	if len(opt.Addrs) == 0 {
		return nil, stats, fmt.Errorf("shard: no worker addresses")
	}

	// Dispatch. Every job gets its own connection; a failure cancels
	// the group context, which closes in-flight connections via the
	// AfterFunc below — no shard can block the collection forever.
	gctx, cancel := context.WithCancel(ctx)
	defer cancel()
	trees := make([]*ctree.Tree, len(opt.Jobs))
	bytesIn := make([]int64, len(opt.Jobs))
	errs := make([]error, len(opt.Jobs))
	sem := make(chan struct{}, len(opt.Addrs))
	done := make(chan int)
	for i := range opt.Jobs {
		go func(i int) {
			defer func() { done <- i }()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-gctx.Done():
				errs[i] = gctx.Err()
				return
			}
			job := opt.Jobs[i]
			job.Shard = i
			addr := opt.Addrs[i%len(opt.Addrs)]
			tree, n, err := runShard(gctx, addr, job, !opt.DistrustChecksums)
			bytesIn[i] = n
			if err != nil {
				errs[i] = &WorkerError{Shard: i, Addr: addr, Err: err}
				cancel()
				return
			}
			trees[i] = tree
		}(i)
	}
	for range opt.Jobs {
		<-done
	}
	// Prefer the lowest-indexed ORGANIC failure: peers aborted by the
	// group cancellation report context.Canceled, which would mask the
	// shard that actually failed.
	var firstErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if !errors.Is(err, context.Canceled) {
			firstErr = err
			break
		}
	}
	if firstErr != nil {
		return nil, stats, firstErr
	}
	for i, t := range trees {
		stats.ShardsBuilt++
		stats.BytesStreamed += bytesIn[i]
		stats.Points += t.Eta
	}
	return trees, stats, nil
}

// runShard performs one job exchange with one worker.
func runShard(ctx context.Context, addr string, job Job, trust bool) (*ctree.Tree, int64, error) {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, 0, err
	}
	defer conn.Close()
	// Cancellation mid-exchange tears the connection down, unblocking
	// any pending read — the coordinator never waits on a dead peer.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	if err := writeJob(conn, job); err != nil {
		return nil, 0, fmt.Errorf("sending job: %w", err)
	}
	t, n, err := readTree(conn, trust)
	if err != nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	return t, n, err
}
