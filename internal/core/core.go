// Package core implements the MrCC clustering method itself: the
// β-cluster search over the Counting-tree (Algorithm 2 of the paper) and
// the assembly of correlation clusters from β-clusters (Algorithm 3),
// followed by point labeling. Run is the one entry point: its Input
// either holds a normalized dataset to build the Counting-tree from, or
// pre-built trees to cluster (and optionally a dataset to label).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"mrcc/internal/conv"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/fault"
	"mrcc/internal/mdl"
	"mrcc/internal/obs"
	"mrcc/internal/panics"
	"mrcc/internal/stats"
)

// Noise is the label assigned to points that belong to no correlation
// cluster.
const Noise = -1

// relevanceCeiling caps the MDL relevance threshold. A relevance
// r[j] = 100·cPj/nPj of 100/6 ≈ 16.7 is what the uniform null predicts;
// an axis at four times that share is concentrated beyond doubt and must
// never be marked irrelevant, even when the MDL cut of an all-relevant
// profile lands inside the high group. Without this guard such a cut
// leaves most axes unbounded ([0,1]) and unrelated clusters chain-merge
// through the resulting near-universal box.
const relevanceCeiling = 400.0 / 6.0

// DefaultAlpha is the significance level the paper fixes for all its
// experiments (Section IV-E).
const DefaultAlpha = 1e-10

// DefaultH is the number of resolutions the paper fixes for all its
// experiments (Section IV-E).
const DefaultH = 4

// Config controls a run of MrCC.
type Config struct {
	// Alpha is the statistical significance of the null-hypothesis test
	// that confirms β-clusters. Defaults to DefaultAlpha when zero.
	Alpha float64
	// H is the number of resolutions of the Counting-tree (>= 3).
	// Defaults to DefaultH when zero.
	H int
	// MaxBetaClusters optionally caps the number of β-clusters; zero
	// means unlimited. The paper needs no cap (it observed at most 33);
	// the cap is a safety valve for adversarial inputs.
	MaxBetaClusters int
	// Workers sets the parallelism of the pipeline: the Counting-tree
	// build's sort phase, the convolution scan, and point labeling all
	// fan out over this many goroutines. 0 selects GOMAXPROCS; 1 runs
	// each phase single-threaded. The result is bit-identical for every
	// worker count — the build merges one sorted stream per worker into
	// the same canonical tree (DESIGN.md §9), and the convolution scan
	// reduces per-chunk argmaxes with the same lexicographic-path
	// tie-break the serial scan uses (DESIGN.md §5).
	Workers int
	// CollectStats enables the observability layer, and is its one
	// switch: per-phase wall times, runtime.MemStats deltas and pipeline
	// counters land in Result.Stats, the one record a run writes
	// (DESIGN.md §6). Collection never changes the clustering output —
	// the serial-equivalence guarantee holds with stats on — and costs
	// well under 2% of a run's wall time.
	CollectStats bool
	// MemoryLimitBytes caps the estimated footprint of the Counting-tree
	// plus its flat level indexes — the pipeline's dominant memory
	// consumer. 0 means unlimited. The limit is enforced twice: on the
	// build's arena, sized exactly before it is allocated and never grown
	// by the count, and after index construction (exact accounting); a
	// refused run returns a *ResourceError. The decision is deterministic
	// for a fixed (dataset, Config): both figures follow from the data
	// alone, never from a worker's timing (DESIGN.md §8).
	MemoryLimitBytes uint64
	// DegradeOnMemoryLimit, with MemoryLimitBytes set, retries a refused
	// build at H-1, H-2, … down to ctree.MinLevels instead of failing.
	// The fallback is deterministic — the run behaves exactly like one
	// configured with the reduced H — and the reduced resolution count
	// is recorded in Stats.DegradedH. Only when the smallest H still
	// exceeds the limit does the run return a *ResourceError.
	DegradeOnMemoryLimit bool
	// ExternalSpillDir, when non-empty, builds the Counting-tree
	// out-of-core (ctree.BuildOptions.SpillDir): quantized points are
	// sorted in bounded-memory runs, spilled under this directory, and
	// k-way merged into the tree. The resulting tree — and therefore the
	// whole clustering Result — is identical to the in-memory build's.
	// In this mode MemoryLimitBytes bounds the spill sort buffer rather
	// than the tree footprint, so it composes with datasets whose sorted
	// record stream is far larger than memory; it cannot be combined
	// with DegradeOnMemoryLimit (the degrade ladder exists to shrink the
	// tree, which the external build does not). The directory must exist
	// and be writable; all spill state lives in a per-run temp
	// subdirectory that is removed on every exit path (DESIGN.md §10).
	ExternalSpillDir string
	// KeepTree returns the run's Counting-tree in Result.Tree — the one
	// it built, or its lone Input tree — so the caller can snapshot it
	// (treeio.SaveFile) or rerun clustering on it (Run with
	// Input.Trees). No run writes the tree, so reruns over it may run at
	// the same time. Off by default: the tree is the pipeline's dominant
	// allocation and holding it in the Result keeps it reachable.
	KeepTree bool

	// scan, when set, replaces the β-search's level scan
	// (densestCellCached) with one of the oracles the equivalence
	// suites pin it against (scan_equiv_test.go); only tests set it
	// (export_test.go).
	scan func(s *searcher, h int) (ctree.Path, int, int64)
	// fullMask and relevanceThreshold serve the ablations only (see
	// WithFullMask and WithRelevanceThreshold); the paper's method runs
	// with both zero.
	fullMask           bool
	relevanceThreshold float64
}

// WithFullMask returns cfg with the convolution switched to the full
// 3^d Laplacian mask, for the mask ablation; the paper's method uses
// the face-only mask.
func WithFullMask(cfg Config) Config {
	cfg.fullMask = true
	return cfg
}

// WithRelevanceThreshold returns cfg with the MDL-tuned relevance cut
// replaced by the fixed threshold t in (0, 100), for the A-mdl ablation
// that quantifies what the paper's MDL step buys; zero restores MDL.
func WithRelevanceThreshold(cfg Config, t float64) Config {
	cfg.relevanceThreshold = t
	return cfg
}

// workerCount resolves Workers to a concrete goroutine count.
func (c Config) workerCount() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c Config) withDefaults() Config {
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.H == 0 {
		c.H = DefaultH
	}
	return c
}

func (c Config) validate() error {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("core: alpha must be in (0,1), got %g", c.Alpha)
	}
	if c.H < ctree.MinLevels {
		return fmt.Errorf("core: H must be >= %d, got %d", ctree.MinLevels, c.H)
	}
	if c.MaxBetaClusters < 0 {
		return fmt.Errorf("core: MaxBetaClusters must be >= 0, got %d", c.MaxBetaClusters)
	}
	if c.relevanceThreshold < 0 || c.relevanceThreshold > 100 {
		return fmt.Errorf("core: relevance threshold must be in [0,100], got %g", c.relevanceThreshold)
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", c.Workers)
	}
	if c.ExternalSpillDir != "" && c.DegradeOnMemoryLimit {
		return errors.New("core: ExternalSpillDir and DegradeOnMemoryLimit are mutually exclusive: the external build bounds the sort buffer, not the tree, so there is nothing to degrade")
	}
	return nil
}

// BetaCluster describes one β-cluster: a dense hyper-rectangular region
// found at some tree level, with per-axis bounds and relevance flags.
type BetaCluster struct {
	// L and U are the lower and upper bounds per axis; irrelevant axes
	// span [0,1].
	L, U []float64
	// Relevant[j] reports whether axis j is relevant to the β-cluster.
	Relevant []bool
	// Relevances holds r[j] = 100·cPj/nPj, the raw per-axis relevance.
	Relevances []float64
	// Level is the tree level where the β-cluster's center cell lies.
	Level int
	// Center is the path of the center cell.
	Center ctree.Path
}

// SharesSpace reports whether the β-cluster's box overlaps the box
// [l, u] in every axis.
func (b *BetaCluster) SharesSpace(l, u []float64) bool {
	for j := range b.L {
		if u[j] < b.L[j] || l[j] > b.U[j] {
			return false
		}
	}
	return true
}

// Cluster is a correlation cluster: a set of β-clusters that mutually
// share space, the union of their relevant axes, and the points labeled
// into it.
type Cluster struct {
	// ID is the cluster index (0-based) used in Result.Labels.
	ID int
	// Betas indexes the member β-clusters in Result.Betas.
	Betas []int
	// Relevant[j] reports whether axis j is relevant to the cluster.
	Relevant []bool
	// Size is the number of points labeled into the cluster.
	Size int
}

// RelevantAxes returns the sorted indices of the cluster's relevant axes.
func (c *Cluster) RelevantAxes() []int {
	var out []int
	for j, r := range c.Relevant {
		if r {
			out = append(out, j)
		}
	}
	return out
}

// Result is the outcome of a MrCC run.
type Result struct {
	// Betas are the β-clusters in discovery order.
	Betas []BetaCluster
	// Clusters are the correlation clusters.
	Clusters []Cluster
	// Labels assigns each input point its cluster ID, or Noise.
	Labels []int
	// TreeMemoryBytes estimates the Counting-tree footprint.
	TreeMemoryBytes uint64
	// Stats is the run's one observability record: per-phase wall times
	// (the paper's three phases are TreeBuild; LevelIndex plus
	// BetaSearch; ClusterMerge plus Labeling), memory deltas and
	// pipeline counters. nil unless Config.CollectStats.
	Stats *obs.Stats
	// Tree is the Counting-tree the run clustered on; nil unless
	// Config.KeepTree, and for a run over several trees. It can be fed
	// straight back into Run as Input.Trees, by any number of runs at
	// once: a run writes nothing it reads.
	Tree *ctree.Tree
}

// NumClusters returns γk, the number of correlation clusters.
func (r *Result) NumClusters() int { return len(r.Clusters) }

// Input says what a run clusters. Without Trees the run builds the
// Counting-tree from Dataset (phase one), then clusters and labels it.
// With Trees phase one is skipped: the run clusters the union of the
// trees, which share one geometry, none nil, and labels Dataset when
// one is given. The trees' resolution count is then the run's, whatever
// Config.H says, and Stats.H records it. Labeling needs trees whose
// dimensionality matches Dataset's and whose points sum to its length:
// the data must be the normalized data the trees counted, as the runs
// of a facade Tree grown batch by batch (ctree.Runs) count it. Without a Dataset, Result.Labels is nil
// and Cluster.Size stays zero; the streaming service publishes query
// views from such runs, assigning a point to the cluster owning the
// first β-cluster box containing it, exactly the rule labeling applies.
//
// A run writes nothing it reads: not the trees, not their level
// indexes and not Dataset. So runs over one tree, or one set of trees,
// may run at the same time, and each gives the Result it gives alone.
// Only a call that changes a tree (ctree's InsertBatch or MergeFrom)
// must not overlap a run over it.
type Input struct {
	// Dataset holds points normalized to [0,1)^d.
	Dataset *dataset.Dataset
	// Trees are pre-built Counting-trees of one geometry.
	Trees []*ctree.Tree
}

// Run executes the MrCC pipeline over in under a context. Every phase —
// the chunked tree build, each β-search scan pass, the cluster merge,
// and range-parallel labeling — polls ctx at chunk boundaries, so
// cancellation or deadline expiry aborts the run within one chunk of
// work. With Config.CollectStats the Result carries the run's one
// record, Stats, when the run ends; nothing reports while it runs. An
// aborted run returns a *PipelineError naming the interrupted phase and
// carrying the partial Stats; context.Background() adds no observable
// overhead. A panic inside any worker goroutine or pipeline phase is
// recovered and surfaces the same way (a *PipelineError wrapping a
// *panics.Error) instead of crashing the host. The memory
// limit and its degradation policy bound the tree build only.
//
// With Config.Workers != 1 the Counting-tree build sorts per-goroutine
// shards before merging them (ctree.Build), and the convolution scan
// and point labeling fan out too; the result is bit-identical to the
// serial run for every worker count.
//
// The β-search keeps Algorithm 2's usedCell flags itself, one per level
// index entry, so a run only reads its trees and their level indexes:
// rerunning on the same tree — the CLI's -load-tree path, or an α sweep
// over one build — yields the same Result (TestRunOnTreeTwiceIdentical
// pins it), and so do reruns side by side
// (TestConcurrentRunsWriteNothing). A run over one tree reads the level
// indexes cached on it, which the first run builds under the tree's
// lock (ctree.Tree.EnsureLevelIndexes). Over several trees the β-search
// reads the level indexes of their union (ctree.UnionLevelIndexes),
// whose counts add up across the trees, so the Result is the one a run
// over their ctree.Union gives and no merged tree is written: the
// streaming service clusters its two-tree window this way. Such a run
// caches nothing on the trees, keeps none in Result.Tree, and refuses
// trees whose points sum past ctree.MaxPoints.
func Run(ctx context.Context, in Input, cfg Config) (res *Result, err error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	for i, t := range in.Trees {
		if t == nil {
			return nil, fmt.Errorf("core: tree %d to cluster is nil", i)
		}
	}
	var col *obs.Collector
	if cfg.CollectStats {
		col = obs.New()
	}
	ab := newAborter(ctx)
	trees, phase := in.Trees, obs.PhaseBetaSearch
	if len(trees) == 0 {
		phase = obs.PhaseTreeBuild
	}
	defer func() {
		if r := recover(); r != nil {
			err = panics.New(r)
		}
		if err != nil && isAbort(err) {
			col.SetAborted(phase)
			res = nil
			err = &PipelineError{Phase: phase.String(), Err: err, Stats: col.Finish()}
		}
	}()
	if len(trees) == 0 {
		if in.Dataset == nil {
			return nil, errors.New("core: no dataset or tree to cluster")
		}
		t, h, err := buildTreeBounded(ctx, in.Dataset, cfg, col)
		if err != nil {
			return nil, ab.fail(err)
		}
		if h != cfg.H {
			col.SetDegradedH(h)
		}
		trees = []*ctree.Tree{t}
	}
	res, phase, err = runOnTreeAbortable(trees, in.Dataset, cfg, col, ab)
	return res, err
}

// RunOnTree is Run over one tree, labeling ds, under a background
// context. perfbench is its only caller; a benchmark change moves
// perfbench to Run and removes it.
func RunOnTree(t *ctree.Tree, ds *dataset.Dataset, cfg Config) (*Result, error) {
	return Run(context.Background(), Input{Dataset: ds, Trees: []*ctree.Tree{t}}, cfg)
}

// RunTree is Run over one tree with no dataset, under a background
// context. perfbench is its only caller; a benchmark change moves
// perfbench to Run and removes it.
func RunTree(t *ctree.Tree, cfg Config) (*Result, error) {
	return Run(context.Background(), Input{Trees: []*ctree.Tree{t}}, cfg)
}

// buildTreeBounded builds the Counting-tree under cfg's context,
// memory limit, and degradation policy. It returns the tree and the
// resolution count actually used (smaller than cfg.H only under
// DegradeOnMemoryLimit).
//
// The authoritative limit check happens here, after the flat level
// indexes are materialized, against the exact slab accounting:
// Tree.MemoryBytes is an O(1) sum of arena capacities (the arena the
// build refused or accepted up front, unchanged since), and
// IndexMemoryBytes covers the disjoint index slabs, so the sum is the
// run's true steady-state footprint with no double counting. A refused
// footprint degrades to H-1 when allowed — the retry builds a fresh
// tree, so the result is identical to a run configured with the
// smaller H from the start — and otherwise becomes a *ResourceError. With ExternalSpillDir the
// one Build call spills instead, and MemoryLimitBytes bounds its sort
// buffer rather than the tree.
func buildTreeBounded(ctx context.Context, ds *dataset.Dataset, cfg Config, col *obs.Collector) (*ctree.Tree, int, error) {
	defer col.Start(obs.PhaseTreeBuild).End()
	h := cfg.H
	for {
		t, err := ctree.Build(ds, h, ctree.BuildOptions{
			Workers:          cfg.workerCount(),
			Collector:        col,
			Ctx:              ctx,
			MemoryLimitBytes: cfg.MemoryLimitBytes,
			SpillDir:         cfg.ExternalSpillDir,
		})
		var le *ctree.LimitError
		if errors.As(err, &le) {
			if cfg.DegradeOnMemoryLimit && h > ctree.MinLevels {
				h--
				continue
			}
			return nil, 0, &ResourceError{
				LimitBytes:    le.LimitBytes,
				EstimateBytes: le.EstimateBytes,
				H:             le.H,
				Degraded:      cfg.DegradeOnMemoryLimit,
			}
		}
		if err != nil {
			return nil, 0, err
		}
		// Out of core, MemoryLimitBytes bounds the spill sort buffer, not
		// the tree (validate rejects DegradeOnMemoryLimit there).
		if cfg.MemoryLimitBytes > 0 && cfg.ExternalSpillDir == "" {
			// Materialize the level indexes now (the β-search would build
			// them lazily anyway) so the authoritative check covers the
			// run's true steady-state footprint.
			t.EnsureLevelIndexes()
			est := t.MemoryBytes() + t.IndexMemoryBytes()
			if est > cfg.MemoryLimitBytes {
				if cfg.DegradeOnMemoryLimit && h > ctree.MinLevels {
					h--
					continue
				}
				return nil, 0, &ResourceError{
					LimitBytes:    cfg.MemoryLimitBytes,
					EstimateBytes: est,
					H:             h,
					Degraded:      cfg.DegradeOnMemoryLimit,
				}
			}
		}
		return t, h, nil
	}
}

// runOnTreeAbortable is the clustering back half (phases two and
// three) over the union of one or more trees, with the collector and
// abort machinery Run shares with the tree build. A dataset to label
// holds the points the trees count. cfg must already be defaulted and
// validated. The returned phase names the stage an error interrupted.
func runOnTreeAbortable(trees []*ctree.Tree, ds *dataset.Dataset, cfg Config, col *obs.Collector, ab *aborter) (*Result, obs.Phase, error) {
	t, eta := trees[0], ctree.Runs(trees).Points()
	if ds != nil && (t.D != ds.Dims || eta != ds.Len()) {
		return nil, obs.PhaseBetaSearch, fmt.Errorf("core: tree (d=%d, η=%d) does not match dataset (d=%d, η=%d)",
			t.D, eta, ds.Dims, ds.Len())
	}
	workers := cfg.workerCount()
	spIndex := col.Start(obs.PhaseLevelIndex)
	idx, err := levelIndexes(trees)
	spIndex.End()
	if err != nil {
		return nil, obs.PhaseLevelIndex, err
	}
	spSearch := col.Start(obs.PhaseBetaSearch)
	if col != nil {
		col.SetShape(eta, t.D, t.H, workers)
		for _, ix := range idx {
			col.CountCells(ix.Level, int64(ix.Len()))
		}
	}
	s := &searcher{idx: idx, d: t.D, cfg: cfg, workers: workers, col: col, abort: ab, critCache: make(map[int]int),
		path: make(ctree.Path, 0, len(idx))}
	betas, err := s.findBetaClusters()
	spSearch.End()
	if err != nil {
		return nil, obs.PhaseBetaSearch, err
	}
	if err := ab.check(fault.Merge); err != nil {
		return nil, obs.PhaseClusterMerge, err
	}
	spMerge := col.Start(obs.PhaseClusterMerge)
	clusters, merges := buildClusters(betas, t.D)
	spMerge.End()
	col.SetClusterCounts(int64(len(betas)), int64(len(clusters)), int64(merges))
	var labels []int
	if ds != nil {
		spLabel := col.Start(obs.PhaseLabeling)
		labels, err = labelPoints(ds, betas, clusters, workers, col, ab)
		spLabel.End()
		if err != nil {
			return nil, obs.PhaseLabeling, err
		}
		for i := range clusters {
			clusters[i].Size = 0
		}
		for _, lb := range labels {
			if lb != Noise {
				clusters[lb].Size++
			}
		}
	}
	// The trees' arenas and the level indexes are disjoint slabs, so the
	// reported footprint is their sum: for one tree, the total the
	// memory-limit check uses (MemoryBytes + IndexMemoryBytes).
	arena := ctree.Runs(trees).MemoryBytes()
	var indexBytes uint64
	for _, ix := range idx {
		indexBytes += ix.MemoryBytes()
	}
	treeBytes := arena + indexBytes
	col.SetTreeBytes(treeBytes, arena)
	var keep *ctree.Tree
	if cfg.KeepTree && len(trees) == 1 {
		keep = t
	}
	return &Result{
		Tree:            keep,
		Betas:           betas,
		Clusters:        clusters,
		Labels:          labels,
		TreeMemoryBytes: treeBytes,
		Stats:           col.Finish(),
	}, obs.PhaseLabeling, nil
}

// levelIndexes returns the level indexes the β-search reads: a lone
// tree's cached ones, or those of the union of several.
func levelIndexes(trees []*ctree.Tree) ([]*ctree.LevelIndex, error) {
	if len(trees) == 1 {
		return trees[0].EnsureLevelIndexes(), nil
	}
	return ctree.UnionLevelIndexes(trees...)
}

// searcher carries the state of the β-cluster search (Algorithm 2).
// It addresses a cell by level and entry index in the level indexes,
// which hold every count the search reads, and owns the one state the
// search writes besides its β-clusters: the usedCell flags.
type searcher struct {
	idx       []*ctree.LevelIndex // the run's level indexes: idx[h-1] is level h; read only
	d         int
	cfg       Config
	workers   int
	col       *obs.Collector // nil when stats are off; all methods no-op
	abort     *aborter       // nil when the run has no abort machinery; all methods no-op
	betas     []BetaCluster
	critCache map[int]int // nP -> θ (see criticalValue) at cfg.Alpha (p = 1/6)
	lBuf      []float64   // scratch cell bounds for the overlap check
	uBuf      []float64
	path      ctree.Path // scratch root path of the entry a probe or a β-test reads
	// used[h][i] is the usedCell flag of level h's entry i, allocated
	// when a pass first reaches level h (usedAt): set on every cell a
	// β-test took, so no pass picks it again.
	used [][]bool
	// scans holds the per-level one-shot convolution caches
	// (scancache.go): the cell set and mask values of a level are fixed
	// for the searcher's lifetime — only the used flags and the
	// β-cluster list change between restart passes, and the cached scan
	// re-checks both per entry.
	scans []*levelScan
}

// findBetaClusters runs the outer repeat loop of Algorithm 2: search
// levels 2..H-1 for the next β-cluster, restart after each hit, stop
// when a full pass finds none. Every restart pass and every per-level
// scan is an abort checkpoint; errors recorded mid-scan by worker
// chunks (parallel.go) surface here after the fan-out drained.
func (s *searcher) findBetaClusters() ([]BetaCluster, error) {
	for {
		if s.cfg.MaxBetaClusters > 0 && len(s.betas) >= s.cfg.MaxBetaClusters {
			return s.betas, nil
		}
		if err := s.abort.check(fault.ScanPass); err != nil {
			return s.betas, err
		}
		s.col.AddScanPass()
		found := false
		for h := 2; h <= len(s.idx); h++ {
			if err := s.abort.check(fault.ScanLevel); err != nil {
				return s.betas, err
			}
			spScan := s.col.Start(obs.PhaseConvScan)
			_, cell, _ := s.densestCell(h)
			spScan.EndAtLevel(h)
			if err := s.abort.firstErr(); err != nil {
				return s.betas, err
			}
			if cell < 0 {
				continue
			}
			if err := s.abort.check(fault.BetaTest); err != nil {
				return s.betas, err
			}
			s.markUsed(h, cell)
			spTest := s.col.Start(obs.PhaseBetaTest)
			beta, ok := s.testCell(h, cell)
			spTest.End()
			s.col.AddBetaTest(ok)
			if ok {
				s.betas = append(s.betas, beta)
				found = true
				break // restart from level 2
			}
		}
		if !found {
			return s.betas, nil
		}
	}
}

// usedAt returns level h's usedCell flags, one per index entry,
// allocating them clear when a pass first reaches the level.
func (s *searcher) usedAt(h int) []bool {
	if s.used == nil {
		s.used = make([][]bool, len(s.idx)+1)
	}
	if s.used[h] == nil {
		s.used[h] = make([]bool, s.idx[h-1].Len())
	}
	return s.used[h]
}

// markUsed sets the usedCell flag of level h's entry i.
func (s *searcher) markUsed(h, i int) { s.usedAt(h)[i] = true }

// densestCell returns the path, entry index and convolution value of
// the eligible (not used, not β-overlapping) cell at level h with the
// largest convolution value, ties broken by the lexicographically
// smallest path so the method stays deterministic, or (nil, -1, 0) when
// no cell is eligible. It reads the first eligible entry of the level's
// (value desc, path asc) order over its cached values, popped from a
// heap as the scan reaches it (scancache.go), unless a test installed
// an oracle scan (Config.scan).
func (s *searcher) densestCell(h int) (ctree.Path, int, int64) {
	if s.cfg.scan != nil {
		return s.cfg.scan(s, h)
	}
	return s.densestCellCached(h)
}

// sharesSpaceWithBeta reports whether the cell at path p overlaps any
// previously found β-cluster in every axis.
func (s *searcher) sharesSpaceWithBeta(p ctree.Path) bool {
	if s.lBuf == nil {
		s.lBuf = make([]float64, s.d)
		s.uBuf = make([]float64, s.d)
	}
	return s.sharesSpaceWithBetaInto(p, s.lBuf, s.uBuf)
}

// sharesSpaceWithBetaInto is sharesSpaceWithBeta writing the cell
// bounds into caller-owned scratch, so the concurrent workers of the
// naive scan oracle need no shared state.
func (s *searcher) sharesSpaceWithBetaInto(p ctree.Path, lBuf, uBuf []float64) bool {
	if len(s.betas) == 0 {
		return false
	}
	for j := 0; j < s.d; j++ {
		lBuf[j], uBuf[j] = p.Bounds(j)
	}
	for i := range s.betas {
		if s.betas[i].SharesSpace(lBuf, uBuf) {
			return true
		}
	}
	return false
}

// testCell applies the null-hypothesis test centered on level h's
// entry i (Algorithm 2, lines 14-17) and, when at least one axis
// rejects uniformity, describes the new β-cluster (lines 19-30). The
// parent cell is the entry's parent in the level above, and the face
// neighbors of the parent and of the cell are found by path lookups in
// the level indexes, so their counts are the union's; the scan starts
// at level 2, so the parent level is indexed.
func (s *searcher) testCell(h, i int) (BetaCluster, bool) {
	d := s.d
	ix, up := s.idx[h-1], s.idx[h-2]
	p := ix.PathInto(s.path, i)
	s.path = p
	parent := ix.Parent(i)
	lowerN, upperN := conv.FaceNeighborCounts(up, p[:h-1])
	cP := make([]int64, d)
	nP := make([]int64, d)
	significant := false
	parentN := int64(up.N(parent))
	for j := 0; j < d; j++ {
		nP[j] = parentN + int64(lowerN[j]) + int64(upperN[j])
		if p[h-1]&(1<<uint(j)) == 0 {
			cP[j] = int64(up.P(parent, j))
		} else {
			cP[j] = parentN - int64(up.P(parent, j))
		}
		if s.isSignificant(cP[j], nP[j]) {
			significant = true
		}
	}
	if !significant {
		return BetaCluster{}, false
	}
	// Relevances r[j] = 100·cPj/nPj, MDL-tuned threshold, then bounds.
	r := make([]float64, d)
	for j := 0; j < d; j++ {
		if nP[j] > 0 {
			r[j] = 100 * float64(cP[j]) / float64(nP[j])
		}
	}
	var cThreshold float64
	if s.cfg.relevanceThreshold > 0 {
		cThreshold = s.cfg.relevanceThreshold
	} else {
		o := append([]float64(nil), r...)
		sort.Float64s(o)
		cThreshold = math.Min(mdl.Threshold(o), relevanceCeiling)
	}
	beta := BetaCluster{
		L:          make([]float64, d),
		U:          make([]float64, d),
		Relevant:   make([]bool, d),
		Relevances: r,
		Level:      h,
		Center:     p.Clone(),
	}
	cellLowerN, cellUpperN := conv.FaceNeighborCounts(ix, p)
	step := ctree.SideLen(h)
	// A neighbor only extends the bounds when it holds a noticeable
	// share of the center cell's points. The paper says "at least one
	// point", but with background noise *every* neighbor holds stray
	// points in low dimensionalities, and literal extension glues
	// unrelated clusters together through noise (see DESIGN.md §5);
	// genuine cluster mass spilling over a cell border always clears
	// this bar.
	minSpill := ix.N(i) / 20
	if minSpill < 1 {
		minSpill = 1
	}
	for j := 0; j < d; j++ {
		if r[j] >= cThreshold {
			beta.Relevant[j] = true
			lj, uj := p.Bounds(j)
			if cellLowerN[j] >= minSpill {
				lj -= step
			}
			if cellUpperN[j] >= minSpill {
				uj += step
			}
			beta.L[j] = math.Max(0, lj)
			beta.U[j] = math.Min(1, uj)
		} else {
			beta.L[j] = 0
			beta.U[j] = 1
		}
	}
	return beta, true
}

// isSignificant applies the paper's one-sided test (Section III-C):
// observing cP points in a half-space of an nP-point neighborhood
// rejects the uniform null exactly when cP > θnα, with θnα from
// criticalValue. The boundary is pinned by TestSignificanceBoundary.
func (s *searcher) isSignificant(cP, nP int64) bool {
	return nP > 0 && cP > int64(s.criticalValue(int(nP)))
}

// criticalValue memoizes θnα, the one-sided Binomial(n, 1/6) critical
// value at the configured significance: the largest count still
// consistent with uniformity, so cP > θ rejects (the paper's cPj > θjα
// test). stats.BinomCriticalValue returns the smallest k with
// P(X >= k) <= α, hence θ = k - 1. (An earlier version compared
// cP > k itself, silently demanding one count more than α requires;
// the regression test pins cP == θ and cP == θ±1.) The same nP values
// recur across cells, so the θ values are cached per n.
func (s *searcher) criticalValue(n int) int {
	if v, ok := s.critCache[n]; ok {
		s.col.AddCritCache(true)
		return v
	}
	s.col.AddCritCache(false)
	v := stats.BinomCriticalValue(n, 1.0/6.0, s.cfg.Alpha) - 1
	s.critCache[n] = v
	return v
}

// buildClusters groups β-clusters that transitively share space into
// correlation clusters via union-find (Algorithm 3) and unions their
// relevant axes. merges counts the unions that joined two previously
// separate groups, so len(betas) - merges == len(clusters).
func buildClusters(betas []BetaCluster, d int) (clusters []Cluster, merges int) {
	n := len(betas)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
			merges++
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if betas[i].SharesSpace(betas[j].L, betas[j].U) {
				union(i, j)
			}
		}
	}
	idByRoot := make(map[int]int)
	for i := 0; i < n; i++ {
		root := find(i)
		id, ok := idByRoot[root]
		if !ok {
			id = len(clusters)
			idByRoot[root] = id
			clusters = append(clusters, Cluster{ID: id, Relevant: make([]bool, d)})
		}
		c := &clusters[id]
		c.Betas = append(c.Betas, i)
		for j, rel := range betas[i].Relevant {
			if rel {
				c.Relevant[j] = true
			}
		}
	}
	return clusters, merges
}

// labelPoints assigns each point to the correlation cluster owning the
// first β-cluster box containing it, or Noise. Correlation clusters do
// not share space, so the assignment is unambiguous. Each point's label
// depends only on that point, so the range is split across workers
// (parallel.go) with no effect on the output. Every worker polls the
// aborter at segment boundaries, so cancellation is observed within a
// few thousand points; a worker panic is contained by the fan-out and
// surfaces as the returned error.
//
// The points are looked up in one Labeler (label.go), built once per
// call and shared read-only by the workers; the kernel allocates
// nothing (pinned by TestLabelChunkZeroAlloc).
func labelPoints(ds *dataset.Dataset, betas []BetaCluster, clusters []Cluster, workers int, col *obs.Collector, ab *aborter) ([]int, error) {
	labels := make([]int, ds.Len())
	lb := NewLabeler(betas, clusters, ds.Dims)
	labelRange := func(lo, hi int) error {
		for seg := lo; seg < hi; seg += scanCheckEvery {
			end := seg + scanCheckEvery
			if end > hi {
				end = hi
			}
			if err := ab.check(fault.LabelChunk); err != nil {
				return err
			}
			noise := lb.labelChunk(ds.Points[seg:end], labels[seg:end])
			col.AddLabeled(int64(end-seg)-noise, noise)
		}
		return nil
	}
	var err error
	if workers > 1 && ds.Len() >= minParallelPoints {
		err = parallelRangesErr(ds.Len(), workers, labelRange)
	} else {
		err = labelRange(0, ds.Len())
	}
	if err != nil {
		return nil, err
	}
	return labels, nil
}
