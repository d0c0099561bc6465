package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/serve"
	"mrcc/internal/treeio"
	"mrcc/internal/wal"
)

const (
	// maxReplayPasses bounds the re-cluster passes a traced run
	// replays, so a long run's replay stays within the run's time limit.
	maxReplayPasses = 30
	// abPasses is how many replayed passes also run untraced, for the
	// tracing overhead per pass.
	abPasses = 3
)

// replayInput is the stream a traced run replays through the layer
// calls once the measured part is over: the acknowledged batches in
// order, the window rotations and the re-cluster passes the service
// was seen to publish.
type replayInput struct {
	dims    int
	walSync string
	// run is the clustering configuration of each replayed pass: the
	// service's own (H, Alpha, Workers, MaxBetaClusters), so the spans
	// time the pass the service ran. Its H is also the trees' depth.
	run     core.Config
	batches [][][]float64
	// rotateAfter lists, ascending, the batch counts after which the
	// service rotated its window.
	rotateAfter []int
	passes      []replayPass
	// walDir is the log whose cold replay is timed (on a copy); empty
	// times the replay's own log.
	walDir string
}

// replayPass is one observed re-cluster pass: how many batches its
// trees held and what the service published.
type replayPass struct {
	after           int
	betas, clusters int
}

// replayResult is what the replay measured besides its spans.
type replayResult struct {
	walBytes, walPoints int64
	overheadMs          float64 // traced minus untraced pass time, median
	mismatches          []string
}

// replay feeds in through the same public calls the service makes —
// InsertBatch and a WAL append per batch; clone, merge, level index and
// RunTree per pass — with a span around each, then times a checkpoint
// save, its load and a cold WAL replay. Every replayed pass is
// checked against the β-cluster and cluster counts the service
// published for it.
func replay(tr *tracer, in replayInput, dir string) (*replayResult, error) {
	out := &replayResult{}
	cfg := in.run
	active := ctree.New(in.dims, in.run.H)
	var aging *ctree.Tree
	policy, err := wal.ParseSyncPolicy(in.walSync)
	if err != nil {
		return nil, err
	}
	walDir := filepath.Join(dir, "replay-wal")
	l, err := wal.Open(walDir, wal.Options{Sync: policy})
	if err != nil {
		return nil, err
	}
	defer l.Close()

	var traced, untraced []float64
	passes, rot := in.passes, in.rotateAfter
	atCount := func(done int) error {
		for len(rot) > 0 && rot[0] == done {
			aging, active = active, ctree.New(in.dims, in.run.H)
			rot = rot[1:]
		}
		for ; len(passes) > 0 && passes[0].after == done; passes = passes[1:] {
			if len(traced) >= maxReplayPasses {
				continue
			}
			p := passes[0]
			if len(untraced) < abPasses {
				start := time.Now()
				if _, err := passOnce(nil, -1, active, aging, cfg); err != nil {
					return err
				}
				untraced = append(untraced, ms(time.Since(start)))
			}
			root := tr.begin("serve.pass", -1)
			res, err := passOnce(tr, root, active, aging, cfg)
			traced = append(traced, ms(tr.end(root)))
			if err != nil {
				return err
			}
			if len(res.Betas) != p.betas || len(res.Clusters) != p.clusters {
				out.mismatches = append(out.mismatches, fmt.Sprintf(
					"pass after batch %d: replay found %d β-clusters / %d clusters, the service published %d / %d",
					p.after, len(res.Betas), len(res.Clusters), p.betas, p.clusters))
			}
		}
		return nil
	}
	if err := atCount(0); err != nil {
		return nil, err
	}
	for i, b := range in.batches {
		tr.do("ctree.insert_batch", -1, func() { err = active.InsertBatch(b) })
		if err != nil {
			return nil, err
		}
		payload := encodeBatch(b)
		tr.do("wal.append", -1, func() { _, err = l.Append(payload) })
		if err != nil {
			return nil, err
		}
		out.walPoints += int64(len(b))
		if err := atCount(i + 1); err != nil {
			return nil, err
		}
	}
	if len(untraced) > 0 {
		out.overheadMs = median(traced[:len(untraced)]) - median(untraced)
	}
	_, out.walBytes, _ = l.Stats()
	if err := l.Close(); err != nil {
		return nil, err
	}

	merged := active
	if aging != nil {
		if merged, err = mergeWindow(active.Clone(), aging); err != nil {
			return nil, err
		}
	} else if err := mergeProbe(tr, in); err != nil {
		return nil, err
	}

	snap := filepath.Join(dir, "replay.snap")
	tr.do("treeio.save", -1, func() { _, err = treeio.SaveFileCheckpoint(snap, merged, uint64(len(in.batches))) })
	if err != nil {
		return nil, err
	}
	tr.do("treeio.load", -1, func() { _, _, _, err = treeio.LoadFileCheckpointOptions(snap, treeio.LoadOptions{}) })
	if err != nil {
		return nil, err
	}
	if in.walDir == "" {
		in.walDir = walDir
	}
	if err := timeWALReplay(tr, in.walDir, filepath.Join(dir, "replay-wal-copy")); err != nil {
		return nil, err
	}
	return out, nil
}

// passOnce is one re-cluster pass as the service runs it: clone the
// active tree, merge it with a clone of the aging tree, build the level
// indexes and run the β-search, each call a span under root (tr == nil
// runs it without spans).
func passOnce(tr *tracer, root int, active, aging *ctree.Tree, cfg core.Config) (*core.Result, error) {
	var ac *ctree.Tree
	tr.do("ctree.clone", root, func() { ac = active.Clone() })
	merged := ac
	var err error
	if aging != nil {
		tr.do("ctree.merge", root, func() { merged, err = mergeWindow(ac, aging) })
		if err != nil {
			return nil, err
		}
	}
	tr.do("ctree.index", root, func() { merged.EnsureLevelIndexes() })
	var res *core.Result
	tr.do("core.run_tree", root, func() { res, err = core.RunTree(merged, cfg) })
	return res, err
}

// mergeWindow merges the active clone into a clone of the aging tree.
func mergeWindow(activeClone, aging *ctree.Tree) (*ctree.Tree, error) {
	m := aging.Clone()
	if activeClone.Eta > 0 {
		if err := m.MergeFrom(activeClone); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// mergeProbe times Clone + MergeFrom on a workload with no aging tree:
// a tree of the older half of the batches takes in a tree of the newer
// half, the same calls a two-tree window pays per pass.
func mergeProbe(tr *tracer, in replayInput) error {
	half := len(in.batches) / 2
	older, newer := ctree.New(in.dims, in.run.H), ctree.New(in.dims, in.run.H)
	for i, b := range in.batches {
		t := older
		if i >= half {
			t = newer
		}
		if err := t.InsertBatch(b); err != nil {
			return err
		}
	}
	var err error
	tr.do("ctree.merge", -1, func() { _, err = mergeWindow(newer, older) })
	return err
}

// timeWALReplay copies a log directory and times a cold open plus a
// full replay of the copy.
func timeWALReplay(tr *tracer, src, dst string) error {
	if err := copyDir(src, dst); err != nil {
		return err
	}
	var err error
	records := 0
	tr.do("wal.replay", -1, func() {
		var l *wal.Log
		if l, err = wal.Open(dst, wal.Options{Sync: wal.SyncNone}); err != nil {
			return
		}
		err = l.Replay(0, func(uint64, []byte) error { records++; return nil })
		if cerr := l.Close(); err == nil {
			err = cerr
		}
	})
	if err == nil && records == 0 {
		err = fmt.Errorf("wal replay of %s found no records", src)
	}
	return err
}

// encodeBatch lays a batch out the way the service's WAL records do
// (u32 dims, u32 count, then little-endian float64 values), so the
// replayed appends carry the same bytes per point.
func encodeBatch(pts [][]float64) []byte {
	d := len(pts[0])
	buf := make([]byte, 8+len(pts)*d*8)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(d))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(pts)))
	off := 8
	for _, p := range pts {
		for _, v := range p {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	return buf
}

// copyDir copies the regular files of a flat directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// httpFloor times GET /healthz n times on one connection: the cost of
// a request that does no work, the floor under every query.
func httpFloor(base string, n int) ([]float64, error) {
	c := newConn(base)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		status, _, err := c.get("/healthz")
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET /healthz: status %d", status)
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// idleServiceFloor measures the HTTP floor on an idle service, for the
// batch workload, which has no service of its own.
func idleServiceFloor(dims int) ([]float64, error) {
	srv, err := serve.New(serve.Config{Dims: dims, ReclusterEvery: time.Hour})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	return httpFloor(hs.URL, 500)
}
