// The Counting-tree build (Algorithm 1): one entry point for the
// serial, parallel and out-of-core builds (DESIGN.md §8–§10).
//
// Build splits the paper's single data scan into a sort phase and a
// count phase. The sort phase quantizes the points to the level-H
// grid and radix-sorts them by their root-to-leaf path into sorted
// (path key, leaf parity) record streams — one per worker in memory,
// or one per bounded run spilled to disk under SpillDir (spill.go) —
// touching no tree at all. The count phase k-way merges the streams in
// (key, stream index) order and counts each run of equal paths into
// ONE tree through the carry-over descent of batch.go. Whether a
// stream lives in a worker's memory or in a disk run is a property of
// the stream, not a second counting loop. Every other writer that
// counts points (Runs.Add and InsertBatch, stream.go) counts its batch
// with Build on one worker.
//
// Between the phases an in-memory build walks the merged key order
// once more, keys only, to count the cells the tree will store
// (cellCount): each record adds the cells below the level where its
// path leaves the previous record's. The tree's arena is allocated
// once at exactly that size, so it never grows, and the count phase
// appends every cell without a child lookup (batch.go). A spilled
// build's streams are on disk, so it skips the walk: its arena doubles
// as the cells come and is trimmed to them once the merge ends. Either
// way Build returns a written-once tree, exactly its cells (arena.go).
//
// Streams cover contiguous slices of the dataset and sort stably, so
// the merged order is (key, dataset index) — a pure function of the
// dataset. Every configuration therefore builds the same tree in the
// same canonical arena order (DFS preorder, siblings ascending by Loc;
// see arena.go), with the same MemoryBytes and byte-identical treeio
// snapshots, whatever Workers or the run size.
//
// Robustness: sort workers and the merge poll one checkpoint (an armed
// fault point and the context) every buildReportEvery points. An
// in-memory build's arena over the memory cap is refused before it is
// allocated, and since the count never grows the arena, that one
// up-front check is the build's whole memory cap. A panic inside a sort
// worker is recovered in the goroutine itself, so its peers always
// drain and Build returns the panic as an error instead of crashing the
// host. The memory-cap decision is deterministic for a fixed (dataset,
// H, limit) because the merged record sequence — and with it the cell
// count — is.
package ctree

import (
	"cmp"
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mrcc/internal/dataset"
	"mrcc/internal/fault"
	"mrcc/internal/obs"
	"mrcc/internal/panics"
)

// buildReportEvery is the build's checkpoint interval: sort workers
// poll the build control once per buildReportEvery points, and the
// merge once per buildReportEvery records, buffering at most that
// many leaf words of one path.
const buildReportEvery = 8192

// LimitError reports that an in-memory build's arena would exceed the
// caller's memory budget; Build refuses it before allocating it. The
// core layer converts it into the facade's *ResourceError, after
// optionally degrading to a smaller H.
type LimitError struct {
	// LimitBytes is the configured budget.
	LimitBytes uint64
	// EstimateBytes is the footprint that tripped the limit: the
	// in-memory build's arena, refused before it is allocated.
	EstimateBytes uint64
	// H is the resolution count of the refused build.
	H int
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("ctree: counting-tree at H=%d needs ~%d bytes, over the %d-byte memory limit",
		e.H, e.EstimateBytes, e.LimitBytes)
}

// BuildOptions configures Build. The zero value builds in memory on
// GOMAXPROCS workers, with no cancellation, stats or memory cap.
type BuildOptions struct {
	// Workers is the number of goroutines that quantize and sort the
	// in-memory build's shards; <= 0 selects GOMAXPROCS. It never
	// changes the tree. A spilled build sorts its runs one at a time.
	Workers int
	// Collector receives the build's counters (obs.BuildCounters) when
	// the build succeeds. nil records nothing.
	Collector *obs.Collector
	// Ctx cancels the build cooperatively: it is polled at every sort
	// chunk and every merged chunk. nil means no cancellation.
	Ctx context.Context
	// MemoryLimitBytes is the build's memory budget; 0 means
	// unlimited. In memory it caps the tree's MemoryBytes: the arena is
	// sized exactly once the streams are sorted, and one over the cap is
	// refused before it is allocated (a *LimitError); the count never
	// grows it. The authoritative check that includes the level indexes
	// is the caller's job. With SpillDir it bounds the sort buffer
	// instead: each run holds at most
	// MemoryLimitBytes/ExternalRecordBytes(d, H) points (at least 8192),
	// and the tree is not capped.
	MemoryLimitBytes uint64
	// SpillDir, when non-empty, selects the out-of-core build: sorted
	// runs are spilled to a private directory created under SpillDir
	// (which must exist and be writable) and removed on every exit
	// path. The tree is the same as the in-memory build's.
	SpillDir string

	// runPoints, when positive, overrides the run size a spilled build
	// derives from MemoryLimitBytes; tests set it to force exact run
	// counts.
	runPoints int
}

// Build constructs the Counting-tree of a dataset normalized to
// [0,1)^d with H resolutions (Algorithm 1): O(η·H·d) time, one pass
// over the data. It validates the geometry once, sorts the points into
// record streams (in memory, or spilled with opt.SpillDir) and counts
// them into one tree with a single k-way merge; see the file comment
// for why every configuration yields the same tree.
//
// Without SpillDir, Build holds sorted record columns for every point
// next to the tree — η·ExternalRecordBytes(d, H) bytes while it runs;
// SpillDir is the bounded-memory path.
func Build(ds *dataset.Dataset, H int, opt BuildOptions) (*Tree, error) {
	if err := validateBuild(ds, H); err != nil {
		return nil, err
	}
	bc := &buildControl{ctx: opt.Ctx}
	ks := newKeySpread(ds.Dims, H)
	var t *Tree
	var streams []*recordStream
	var st obs.BuildCounters
	if opt.SpillDir == "" {
		var err error
		if streams, err = sortShards(ds, H, ks, opt.Workers, bc); err != nil {
			return nil, err
		}
		// The arena is allocated once, at exactly the cells the streams
		// store, and refused before it is allocated when it alone exceeds
		// the memory cap.
		rows := 1 + cellCount(streams, ds.Dims, H)
		if est, limit := stateBytes(ds.Dims, rows), opt.MemoryLimitBytes; limit > 0 && est > limit {
			return nil, &LimitError{LimitBytes: limit, EstimateBytes: est, H: H}
		}
		t = newTree(ds.Dims, H, rows)
	} else {
		dir, err := os.MkdirTemp(opt.SpillDir, "mrcc-spill-*")
		if err != nil {
			return nil, fmt.Errorf("ctree: creating spill directory: %w", err)
		}
		// Run files only matter until the merge ends: every exit path,
		// success included, closes and removes them.
		defer os.RemoveAll(dir)
		t = New(ds.Dims, H)
		streams, err = spillRuns(t, ds, dir, ks, opt, bc, &st)
		defer closeRuns(streams)
		if err != nil {
			return nil, err
		}
	}
	if err := countMerged(t, streams, bc, ds.Len(), &st); err != nil {
		return nil, err
	}
	t.trim()
	opt.Collector.SetBuildCounters(st)
	return t, nil
}

// BuildParallelOpts is Build under its former name, kept for callers
// outside this module's packages.
func BuildParallelOpts(ds *dataset.Dataset, H int, opt BuildOptions) (*Tree, error) {
	return Build(ds, H, opt)
}

// validateBuild is the build's one geometry check.
func validateBuild(ds *dataset.Dataset, H int) error {
	switch {
	case ds == nil || ds.Len() == 0:
		return fmt.Errorf("ctree: empty dataset")
	case ds.Dims > MaxDims:
		return fmt.Errorf("ctree: dimensionality %d exceeds the maximum %d", ds.Dims, MaxDims)
	case H < MinLevels:
		return fmt.Errorf("ctree: H must be >= %d, got %d", MinLevels, H)
	case H > MaxLevels:
		return fmt.Errorf("ctree: H must be <= %d, got %d", MaxLevels, H)
	case ds.Len() > MaxPoints:
		return fmt.Errorf("ctree: %d points exceed the int32 cell-counter maximum %d (MaxPoints); shard into separate trees", ds.Len(), MaxPoints)
	}
	return nil
}

// buildControl is the shared abort channel of one build: the first
// failure wins, and every later checkpoint observes it through one
// atomic load.
type buildControl struct {
	ctx     context.Context
	stopped atomic.Bool
	mu      sync.Mutex
	err     error
}

// fail records the first error, raises the stop flag and returns the
// recorded (winning) error.
func (bc *buildControl) fail(err error) error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if bc.err == nil {
		bc.err = err
	}
	bc.stopped.Store(true)
	return bc.err
}

// firstErr returns the recorded failure, or nil.
func (bc *buildControl) firstErr() error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	return bc.err
}

// check is the build's one checkpoint. It observes, in order: a
// failure a peer already recorded, the armed fault-injection point and
// context cancellation.
func (bc *buildControl) check(point string) error {
	if bc.stopped.Load() {
		return bc.firstErr()
	}
	if err := fault.Inject(point); err != nil {
		return bc.fail(err)
	}
	if bc.ctx != nil {
		if err := bc.ctx.Err(); err != nil {
			return bc.fail(err)
		}
	}
	return nil
}

// recordStream is one sorted run of (path key, leaf parity) records in
// (key, arrival) order: keys holds the key words of each record (one
// packed word when d·(H-1) <= 64, else the H-1 per-level loc words),
// leaf the matching level-H parity words, and pos is the merge cursor.
// A spilled run holds one block in memory and reads the next one back
// from src as the merge drains it (spill.go).
type recordStream struct {
	keys []uint64
	leaf []uint64
	pos  int
	src  *spillReader
}

// keyWords returns the words of one path key for a d-dimensional tree
// at H resolutions.
func keyWords(d, H int) int {
	if d*(H-1) <= 64 {
		return 1
	}
	return H - 1
}

// sortShards sorts the dataset into one record stream per worker, each
// over a contiguous shard, in parallel; the workers share the spread
// table ks.
func sortShards(ds *dataset.Dataset, H int, ks keySpread, workers int, bc *buildControl) ([]*recordStream, error) {
	n := ds.Len()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	size := (n + workers - 1) / workers
	shards := (n + size - 1) / size
	streams := make([]*recordStream, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Contain worker panics inside the goroutine: the WaitGroup
			// always drains and Build reports the panic as an error.
			defer func() {
				if r := recover(); r != nil {
					errs[s] = bc.fail(panics.New(r))
				}
			}()
			streams[s], errs[s] = sortShard(ds, s*size, min((s+1)*size, n), H, ks, bc)
		}()
	}
	wg.Wait()
	// The first checkpoint failure wins over the follow-on errors of
	// peers that observed the stop flag; validation errors are not
	// recorded there, so the lowest shard's (the dataset's first
	// invalid point) is reported, exactly as a one-stream build would.
	if err := bc.firstErr(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return streams, nil
}

// sortShard quantizes and sorts the dataset slice [lo, hi) into a
// recordStream: a Build worker's shard or a spilled run. It validates
// every point and touches no tree.
// Packed keys are packed through the spread table ks of the tree's
// (d, H) and sort with the stable pair-radix kernel (radix.go), so
// equal keys keep dataset order — the tie-break the deterministic
// merge relies on; multi-word keys (ks nil) fall back to a comparison
// sort over the permutation.
func sortShard(ds *dataset.Dataset, lo, hi, H int, ks keySpread, bc *buildControl) (*recordStream, error) {
	d := ds.Dims
	s := hi - lo
	w := keyWords(d, H)
	keys := make([]uint64, s*w)
	leaf := make([]uint64, s)
	qi := make([]uint64, d)
	for i := 0; i < s; i++ {
		if i%buildReportEvery == 0 {
			if err := bc.check(fault.BuildChunk); err != nil {
				return nil, err
			}
		}
		p := ds.Points[lo+i]
		if len(p) != d {
			return nil, fmt.Errorf("ctree: point %d: ctree: point has %d values, want %d", lo+i, len(p), d)
		}
		var ok bool
		if w == 1 {
			keys[i], leaf[i], ok = ks.quantizePackedKey(p, H, qi)
		} else {
			leaf[i], ok = quantizeKeyWords(p, d, H, keys[i*w:(i+1)*w], qi)
		}
		if !ok {
			return nil, quantizeErr(p, d, H, lo+i)
		}
	}
	if w == 1 {
		sk, sp := radixSortPairs(keys, leaf, make([]uint64, s), make([]uint64, s))
		return &recordStream{keys: sk, leaf: sp}, nil
	}
	// Multi-word: sort a permutation, then materialize the columns in
	// sorted order so the merge reads them like any other stream.
	ord := make([]int32, s)
	for i := range ord {
		ord[i] = int32(i)
	}
	sortKeyOrder(keys, w, ord)
	sk := make([]uint64, s*w)
	sp := make([]uint64, s)
	for i, o := range ord {
		copy(sk[i*w:(i+1)*w], keys[int(o)*w:(int(o)+1)*w])
		sp[i] = leaf[o]
	}
	return &recordStream{keys: sk, leaf: sp}, nil
}

// compareKeys orders two path keys of equal word count
// lexicographically, which for level-major keys is the tree's
// canonical DFS preorder.
func compareKeys(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// sortKeyOrder sorts ord, a permutation of records whose w-word keys
// are laid out back to back in keys, by (key, record index) — the one
// multi-word (key, arrival) order.
func sortKeyOrder(keys []uint64, w int, ord []int32) {
	slices.SortFunc(ord, func(a, c int32) int {
		if r := compareKeys(keys[int(a)*w:int(a)*w+w], keys[int(c)*w:int(c)*w+w]); r != 0 {
			return r
		}
		return cmp.Compare(a, c)
	})
}

// streamHeap is the merge front: a binary min-heap over the streams
// with records left, ordered by (head key, stream index), so picking
// the next record costs O(log R) over R streams. Each entry caches its
// head record's first key word, which settles every comparison of
// packed keys without touching the stream.
type streamHeap struct {
	streams []*recordStream
	w       int
	heads   []streamHead
}

// newStreamHeap returns the merge front over streams of w-word keys,
// each holding at least one record. It returns the heap by value, so a
// caller's heap lives on its stack.
func newStreamHeap(streams []*recordStream, w int) streamHeap {
	h := streamHeap{streams: streams, w: w, heads: make([]streamHead, len(streams))}
	for i, rs := range streams {
		h.heads[i] = streamHead{rs.keys[rs.pos*w], i}
	}
	for i := len(h.heads)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// top returns the stream whose head is the next record in the merged
// order.
func (h *streamHeap) top() *recordStream { return h.streams[h.heads[0].s] }

// pop moves the top stream past its head record, reading a spilled
// run's next block when the buffered one is drained, and restores the
// heap order.
func (h *streamHeap) pop() error {
	top := &h.heads[0]
	rs := h.streams[top.s]
	if rs.pos++; rs.pos == len(rs.leaf) && rs.src != nil && rs.src.remaining > 0 {
		if err := rs.src.fill(rs, h.w); err != nil {
			return err
		}
	}
	if rs.pos < len(rs.leaf) {
		top.key = rs.keys[rs.pos*h.w]
	} else {
		last := len(h.heads) - 1
		h.heads[0] = h.heads[last]
		h.heads = h.heads[:last]
	}
	h.down(0)
	return nil
}

// streamHead is one heap entry: a stream and its head's first key word.
type streamHead struct {
	key uint64
	s   int
}

// less orders two heap entries by their head records.
func (h *streamHeap) less(a, b streamHead) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return h.tieLess(a, b)
}

// tieLess orders two heads whose first key words agree: by the
// remaining key words, then by stream index.
func (h *streamHeap) tieLess(a, b streamHead) bool {
	if c := compareKeys(h.streams[a.s].head(h.w), h.streams[b.s].head(h.w)); c != 0 {
		return c < 0
	}
	return a.s < b.s
}

// down restores the heap order below position i.
func (h *streamHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h.heads) {
			return
		}
		if r := c + 1; r < len(h.heads) && h.less(h.heads[r], h.heads[c]) {
			c = r
		}
		if !h.less(h.heads[c], h.heads[i]) {
			return
		}
		h.heads[i], h.heads[c] = h.heads[c], h.heads[i]
		i = c
	}
}

// head returns the key words of the stream's current record.
func (rs *recordStream) head(w int) []uint64 { return rs.keys[rs.pos*w : rs.pos*w+w] }

// cellCount returns how many cells counting the in-memory streams
// into an empty tree stores, in one walk over their merged key order:
// the first record adds H-1 cells, and every later one the cells from
// the level where its path leaves the previous record's down to level
// H-1 — none when it repeats that path. It leaves the streams rewound
// for the count.
func cellCount(streams []*recordStream, d, H int) int {
	w := keyWords(d, H)
	h := newStreamHeap(streams, w)
	prev := make([]uint64, w)
	cells := 0
	for first := true; len(h.heads) > 0; first = false {
		k := h.top().head(w)
		switch {
		case first:
			cells += H - 1
		case w == 1:
			cells += H - packedDivergence(k[0], prev[0], d, H)
		default:
			cells += H - wordsDivergence(k, prev)
		}
		copy(prev, k)
		_ = h.pop() // in-memory streams read no spill block, so pop cannot fail
	}
	for _, rs := range streams {
		rs.pos = 0
	}
	return cells
}

// countMerged counts the sorted streams, total records in all, into
// the empty tree t in (key, stream index) order — the one counting loop
// of Build. Records sharing a path are buffered, at most
// buildReportEvery leaf words at a time, and counted in one
// carry-over descent (batch.go), so shared prefixes are bumped once per
// run of equal paths rather than once per point, and new cells go in
// without a child lookup. The build control is polled every
// buildReportEvery records and once at the end. The descents, the
// points they counted, the radix-sorted streams and the arena's growths
// are recorded on st.
func countMerged(t *Tree, streams []*recordStream, bc *buildControl, total int, st *obs.BuildCounters) error {
	ins := newBatchInserter(t)
	w := keyWords(t.D, t.H)
	if w == 1 {
		st.RadixSortChunks += int64(len(streams)) // each stream is one sortShard's radix sort
	}
	h := newStreamHeap(streams, w)
	key := make([]uint64, w) // path of the buffered records
	leafs := make([]uint64, 0, min(buildReportEvery, total))
	var prev uint64
	counted := false
	flush := func() {
		if len(leafs) == 0 {
			return
		}
		var deep []int32
		if w == 1 {
			deep = ins.countRunPacked(key[0], prev, !counted, int32(len(leafs)))
			prev = key[0]
		} else {
			deep = ins.countRunAt(key, int32(len(leafs)))
		}
		counted = true
		st.BatchRuns++
		for _, lf := range leafs {
			popcountLower(deep, lf, t.dmask)
		}
		leafs = leafs[:0]
	}
	done := 0
	for len(h.heads) > 0 {
		rs := h.top()
		if len(leafs) == 0 || h.heads[0].key != key[0] || (w > 1 && compareKeys(rs.head(w), key) != 0) {
			flush()
			copy(key, rs.head(w))
		}
		leafs = append(leafs, rs.leaf[rs.pos])
		if len(leafs) == cap(leafs) {
			flush()
		}
		if err := h.pop(); err != nil {
			return err
		}
		done++
		if done%buildReportEvery == 0 {
			if err := bc.check(fault.BuildMerge); err != nil {
				return err
			}
		}
	}
	flush()
	t.Eta += done
	st.BatchRunPoints += int64(done)
	st.ArenaGrows += ins.grows
	return bc.check(fault.BuildMerge)
}
