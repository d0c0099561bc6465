// Worker side: accept one job per connection, build (or load) the
// shard tree, stream it back. Workers are stateless between
// connections — a coordinator retrying a shard on another worker needs
// no cleanup on the one that failed.
package shard

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sync"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/treeio"
)

// Serve runs the worker accept loop on l until ctx is canceled (or the
// listener fails). Each connection carries one job; job failures are
// reported to the coordinator over the connection, never by killing
// the loop. Returns nil on cancellation.
func Serve(ctx context.Context, l net.Listener) error {
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		l.Close()
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			handleConn(ctx, conn)
		}()
	}
}

// handleConn executes one job and responds with the tree or the error.
func handleConn(ctx context.Context, conn net.Conn) {
	br := bufio.NewReader(conn)
	job, err := readJob(br)
	if err != nil {
		writeError(conn, err)
		return
	}
	t, err := runJob(ctx, job)
	bw := bufio.NewWriter(conn)
	if err != nil {
		writeError(bw, err)
	} else if _, err = writeTree(bw, t); err != nil {
		// The stream is torn (fault injection or a real write error);
		// nothing more can be said on this connection.
		bw.Flush()
		return
	}
	bw.Flush()
}

// runJob builds the shard tree the job describes.
func runJob(ctx context.Context, job Job) (*ctree.Tree, error) {
	if err := job.validate(); err != nil {
		return nil, err
	}
	switch job.Kind {
	case KindSnapshot:
		// A file of unknown provenance: validated in full, so every tree
		// a worker sends is one it built or checked.
		t, _, err := treeio.LoadFile(job.Path, treeio.LoadOptions{})
		if err != nil {
			return nil, err
		}
		if job.Dims > 0 && t.D != job.Dims {
			return nil, fmt.Errorf("snapshot holds d=%d, job wants d=%d", t.D, job.Dims)
		}
		if t.H != job.H {
			return nil, fmt.Errorf("snapshot holds H=%d, job wants H=%d", t.H, job.H)
		}
		return t, nil
	case KindCSV:
		ds, err := readCSVShard(job)
		if err != nil {
			return nil, err
		}
		if job.Dims > 0 && ds.Dims != job.Dims {
			return nil, fmt.Errorf("%s holds %d-dimensional rows, job wants %d", job.Path, ds.Dims, job.Dims)
		}
		if err := NormalizeDomain(ds, job.Min, job.Max); err != nil {
			return nil, err
		}
		return ctree.Build(ds, job.H, ctree.BuildOptions{Workers: job.Workers, Ctx: ctx})
	}
	return nil, fmt.Errorf("unknown job kind %q", job.Kind)
}

// readCSVShard parses the job's byte range (or whole file).
func readCSVShard(job Job) (*dataset.Dataset, error) {
	f, err := os.Open(job.Path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if job.End > job.Start {
		if _, err := f.Seek(job.Start, io.SeekStart); err != nil {
			return nil, err
		}
		r = io.LimitReader(f, job.End-job.Start)
	}
	ds, err := dataset.ReadCSV(bufio.NewReaderSize(r, 256<<10), job.Header)
	if err != nil {
		return nil, fmt.Errorf("%s[%d:%d]: %w", job.Path, job.Start, job.End, err)
	}
	return ds, nil
}

// NormalizeDomain maps domain-unit values into [0,1)^d with the
// streaming service's exact embedding (dataset.Domain), refusing a
// domain that embedding cannot take and out-of-domain points. With no
// declared domain (nil min) it leaves the data untouched (the build
// validates [0,1) itself). Exported so a serial reference build over
// the same raw CSV embeds identically to the sharded workers.
func NormalizeDomain(ds *dataset.Dataset, min, max []float64) error {
	if min == nil {
		return nil
	}
	if len(min) != ds.Dims {
		return fmt.Errorf("domain declares %d axes, data holds %d", len(min), ds.Dims)
	}
	dom, err := dataset.NewDomain(min, max)
	if err != nil {
		return err
	}
	for i, p := range ds.Points {
		if err := dom.Embed(p, p); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}
