package shard

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/treeio"
)

// startWorkers launches n in-process workers on loopback listeners and
// returns their addresses. Real TCP, real framing — only the process
// boundary is elided (cmd/mrcc-shard's TestMain covers that).
func startWorkers(t testing.TB, n int) []string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		wg.Add(1)
		go func() {
			defer wg.Done()
			Serve(ctx, l)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	return addrs
}

// union returns ctree.Union of the shard trees.
func union(t *testing.T, trees []*ctree.Tree) *ctree.Tree {
	t.Helper()
	u, err := ctree.Union(trees...)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// writeTestCSV writes an n-point, d-axis dataset in [0,1) to a temp
// CSV and returns its path and the parsed dataset.
func writeTestCSV(t *testing.T, d, n int, seed int64, header bool) (string, *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := dataset.New(d, n)
	if header {
		names := make([]string, d)
		for j := range names {
			names[j] = "axis" + strconv.Itoa(j)
		}
		ds.Names = names
	}
	for i := 0; i < n; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		ds.Append(p)
	}
	path := filepath.Join(t.TempDir(), "points.csv")
	if err := ds.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	return path, ds
}

// TestRunMatchesSerialByteIdentical is the acceptance pin: for W in
// {1, 2, 4, 8} shards the Union of Run's shard trees is ctree.Equal to
// the single-process build AND re-saves byte-identically through treeio
// (Union writes Build's canonical arena order).
func TestRunMatchesSerialByteIdentical(t *testing.T) {
	const d, n, h = 6, 9000, 4 // > one build chunk
	path, ds := writeTestCSV(t, d, n, 314, false)
	serial, err := ctree.Build(ds, h, ctree.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := treeio.Save(&want, serial, treeio.Meta{}); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 2, 4, 8} {
		addrs := startWorkers(t, min(w, 3))
		jobs, err := JobsForCSV(path, false, w, Job{H: h, Dims: d, Workers: 1})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		trees, stats, err := Run(context.Background(), Options{Addrs: addrs, Jobs: jobs})
		if err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		merged := union(t, trees)
		if !ctree.Equal(serial, merged) {
			t.Fatalf("w=%d: merged tree differs from serial build", w)
		}
		if merged.MemoryBytes() != serial.MemoryBytes() {
			t.Fatalf("w=%d: MemoryBytes %d != serial %d", w, merged.MemoryBytes(), serial.MemoryBytes())
		}
		var got bytes.Buffer
		if _, err := treeio.Save(&got, merged, treeio.Meta{}); err != nil {
			t.Fatalf("w=%d: %v", w, err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("w=%d: merged snapshot is not byte-identical to the serial one", w)
		}
		if stats.ShardsBuilt != len(jobs) || stats.Points != n {
			t.Fatalf("w=%d: stats %+v, want %d shards / %d points", w, stats, len(jobs), n)
		}
		if stats.BytesStreamed <= 0 {
			t.Fatalf("w=%d: no bytes accounted", w)
		}
	}
}

// TestRunWithHeaderAndDomain checks the two production wrinkles at
// once: a CSV with a header row, values in domain units mapped by the
// workers with the serving formula.
func TestRunWithHeaderAndDomain(t *testing.T) {
	const d, n, h = 4, 3000, 4
	path, raw := writeTestCSV(t, d, n, 9, true)
	// Scale the stored CSV into domain units [10, 30).
	scaled := dataset.New(d, n)
	scaled.Names = raw.Names
	for _, p := range raw.Points {
		q := make([]float64, d)
		for j, v := range p {
			q[j] = 10 + 20*v
		}
		scaled.Append(q)
	}
	if err := scaled.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	min := make([]float64, d)
	max := make([]float64, d)
	for j := range min {
		min[j], max[j] = 10, 30
	}
	// The reference: normalize exactly like the workers, build serially.
	ref := dataset.New(d, n)
	for _, p := range scaled.Points {
		q := make([]float64, d)
		for j, v := range p {
			q[j] = (v - min[j]) * (1 - 1e-9) / (max[j] - min[j])
		}
		ref.Append(q)
	}
	serial, err := ctree.Build(ref, h, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addrs := startWorkers(t, 2)
	jobs, err := JobsForCSV(path, true, 3, Job{H: h, Dims: d, Min: min, Max: max, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	trees, _, err := Run(context.Background(), Options{Addrs: addrs, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if !ctree.Equal(serial, union(t, trees)) {
		t.Fatal("domain-mapped sharded build differs from the serial reference")
	}
}

// TestRunSnapshotJobs exercises KindSnapshot fan-in: prebuilt shard
// snapshots merge into the same tree as building from the rows.
func TestRunSnapshotJobs(t *testing.T) {
	const d, n, h = 5, 4000, 4
	_, ds := writeTestCSV(t, d, n, 55, false)
	serial, err := ctree.Build(ds, h, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, 4)
	for i := range paths {
		lo, hi := i*n/4, (i+1)*n/4
		part := dataset.New(d, hi-lo)
		for _, p := range ds.Points[lo:hi] {
			part.Append(p)
		}
		tr, err := ctree.Build(part, h, ctree.BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, "shard"+strconv.Itoa(i)+".snap")
		if _, err := treeio.SaveFile(paths[i], tr, treeio.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	addrs := startWorkers(t, 2)
	jobs, err := JobsForPaths(paths, KindSnapshot, false, Job{H: h, Dims: d})
	if err != nil {
		t.Fatal(err)
	}
	trees, _, err := Run(context.Background(), Options{Addrs: addrs, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if !ctree.Equal(serial, union(t, trees)) {
		t.Fatal("snapshot fan-in differs from the serial build")
	}
}

// TestRunCanonicalizesLoneSnapshot pins that a lone -snapshots input
// whose rows are not in canonical order (levelMajor, the kind of row
// order a snapshot an older release saved may hold) comes back from its
// worker, which loads it, and through its Union, a union of one tree, in
// canonical order: the result must re-save byte-identically to the
// single-process build of the same rows.
func TestRunCanonicalizesLoneSnapshot(t *testing.T) {
	const d, n, h = 5, 3000, 4
	_, ds := writeTestCSV(t, d, n, 57, false)
	serial, err := ctree.Build(ds, h, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	grown := levelMajor(serial)
	if slices.Equal(grown.Loc, serial.Columns().Loc) {
		t.Fatal("the level-major rows are in canonical order; the test is vacuous")
	}
	path := filepath.Join(t.TempDir(), "grown.snap")
	saveRows(t, path, serial, grown)
	jobs, err := JobsForPaths([]string{path}, KindSnapshot, false, Job{H: h, Dims: d})
	if err != nil {
		t.Fatal(err)
	}
	trees, _, err := Run(context.Background(), Options{Addrs: startWorkers(t, 1), Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	merged := union(t, trees)
	var want, got bytes.Buffer
	if _, err := treeio.Save(&want, serial, treeio.Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := treeio.Save(&got, merged, treeio.Meta{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("a lone level-major snapshot did not come back in the serial build's arena order")
	}
}

// TestRunRefusesMiscountedSnapshot pins that a worker validates the
// snapshot files it is given: a file whose last leaf claims 1000 more
// points than its parent places there, every checksum recomputed,
// passes a checksum-trusting load, so the worker must load it in full,
// and the coordinator must return a *WorkerError wrapping the
// *treeio.FormatError of that load.
func TestRunRefusesMiscountedSnapshot(t *testing.T) {
	const d, n, h = 5, 3000, 4
	_, ds := writeTestCSV(t, d, n, 58, false)
	serial, err := ctree.Build(ds, h, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := serial.Columns()
	c.N = slices.Clone(c.N)
	c.N[len(c.N)-1] += 1000
	path := filepath.Join(t.TempDir(), "miscounted.snap")
	saveRows(t, path, serial, c)
	if _, _, err := treeio.LoadFile(path, treeio.LoadOptions{TrustChecksums: true}); err != nil {
		t.Fatalf("a checksum-trusting load refused the file (%v); the test is vacuous", err)
	}
	jobs, err := JobsForPaths([]string{path}, KindSnapshot, false, Job{H: h, Dims: d})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Run(context.Background(), Options{Addrs: startWorkers(t, 1), Jobs: jobs})
	var we *WorkerError
	var fe *treeio.FormatError
	if !errors.As(err, &we) || !errors.As(we.Err, &fe) || fe.Section != "tree" {
		t.Fatalf("got %v, want a *WorkerError wrapping a *treeio.FormatError of the tree section", err)
	}
}

// levelMajor returns tr's cells in level-major row order, level 1
// first and each level in tr's order: a valid row order (every parent
// precedes its children) that is not the canonical one.
func levelMajor(tr *ctree.Tree) ctree.Columns {
	c, d := tr.Columns(), tr.D
	order := make([]int, c.Rows())
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(c.Level[a], c.Level[b]) })
	row := make([]ctree.Ref, c.Rows())
	for i, r := range order {
		row[r] = ctree.Ref(i)
	}
	n := len(order)
	lm := ctree.Columns{
		Loc: make([]uint64, n), N: make([]int32, n), Used: make([]bool, n),
		Level: make([]uint8, n), Parent: make([]ctree.Ref, n), P: make([]int32, n*d),
	}
	for i, r := range order {
		lm.Loc[i], lm.N[i], lm.Used[i], lm.Level[i] = c.Loc[r], c.N[r], c.Used[r], c.Level[r]
		lm.Parent[i] = ctree.NilRef
		if i > 0 {
			lm.Parent[i] = row[c.Parent[r]]
		}
		copy(lm.P[i*d:(i+1)*d], c.P[r*d:(r+1)*d])
	}
	return lm
}

// saveRows writes a snapshot of tr's cells to path with its rows as c
// lists them: Save's header, whose geometry c shares, with each column
// replaced by c's and every checksum recomputed.
func saveRows(t *testing.T, path string, tr *ctree.Tree, c ctree.Columns) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := treeio.Save(&buf, tr, treeio.Meta{}); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()[:treeio.HeaderSize]
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	var cols bytes.Buffer
	for i, col := range []any{c.Loc, c.N, c.Used, c.Level, c.Parent, c.P} {
		start := cols.Len()
		if err := binary.Write(&cols, binary.LittleEndian, col); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(hdr[48+i*24+16:], crc32.Checksum(cols.Bytes()[start:], castagnoli))
	}
	binary.LittleEndian.PutUint32(hdr[44:48], 0)
	binary.LittleEndian.PutUint32(hdr[44:48], crc32.Checksum(hdr, castagnoli))
	if err := os.WriteFile(path, append(hdr, cols.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRunSurfacesWorkerRefusal(t *testing.T) {
	addrs := startWorkers(t, 1)
	jobs := []Job{{Kind: KindCSV, Path: filepath.Join(t.TempDir(), "absent.csv"), H: 4}}
	_, _, err := Run(context.Background(), Options{Addrs: addrs, Jobs: jobs})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("got %v, want *WorkerError", err)
	}
	if we.Shard != 0 || we.Addr != addrs[0] {
		t.Fatalf("error names shard %d addr %q, want 0 / %q", we.Shard, we.Addr, addrs[0])
	}
	if !strings.Contains(err.Error(), "absent.csv") {
		t.Fatalf("error %q does not name the missing input", err)
	}
}

func TestRunNoWorkers(t *testing.T) {
	// A dead address fails fast with a typed error instead of hanging.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	path, _ := writeTestCSV(t, 3, 50, 1, false)
	jobs, err := JobsForCSV(path, false, 2, Job{H: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Run(context.Background(), Options{Addrs: []string{addr}, Jobs: jobs})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("got %v, want *WorkerError", err)
	}
}

func TestPartitionCSVCoversEveryRow(t *testing.T) {
	for _, header := range []bool{false, true} {
		path, ds := writeTestCSV(t, 3, 997, 123, header)
		for _, shards := range []int{1, 2, 5, 16} {
			ranges, err := PartitionCSV(path, header, shards)
			if err != nil {
				t.Fatalf("header=%v shards=%d: %v", header, shards, err)
			}
			total := 0
			var prevEnd int64 = -1
			for i, rg := range ranges {
				if rg.End <= rg.Start {
					t.Fatalf("header=%v shards=%d: empty range %d", header, shards, i)
				}
				if prevEnd >= 0 && rg.Start != prevEnd {
					t.Fatalf("header=%v shards=%d: gap before range %d", header, shards, i)
				}
				prevEnd = rg.End
				part, err := readCSVShard(Job{Kind: KindCSV, Path: path, Start: rg.Start, End: rg.End})
				if err != nil {
					t.Fatalf("header=%v shards=%d range %d: %v", header, shards, i, err)
				}
				total += part.Len()
			}
			if total != ds.Len() {
				t.Fatalf("header=%v shards=%d: ranges hold %d rows, file holds %d", header, shards, total, ds.Len())
			}
		}
	}
}

func TestPartitionCSVTinyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.csv")
	if err := os.WriteFile(path, []byte("0.1,0.2\n0.3,0.4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ranges, err := PartitionCSV(path, false, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) == 0 || len(ranges) > 2 {
		t.Fatalf("2-row file partitioned into %d ranges", len(ranges))
	}
	if _, err := PartitionCSV(path, false, 0); err == nil {
		t.Error("0 shards accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.csv")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := PartitionCSV(empty, false, 2); err == nil {
		t.Error("empty file accepted")
	}
}

func TestJobValidate(t *testing.T) {
	good := Job{Kind: KindCSV, Path: "x.csv", H: 4}
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Job{
		{Kind: "tar", Path: "x", H: 4},
		{Kind: KindCSV, H: 4},
		{Kind: KindCSV, Path: "x", Start: 9, End: 3, H: 4},
		{Kind: KindCSV, Path: "x", Min: []float64{0}, H: 4},
		{Kind: KindCSV, Path: "x", Min: []float64{1}, Max: []float64{1}, H: 4},
		{Kind: KindCSV, Path: "x"}, // no "h" on the wire
		{Kind: KindCSV, Path: "x", H: ctree.MinLevels - 1},
		{Kind: KindSnapshot, Path: "x", H: ctree.MaxLevels + 1},
	}
	for i, job := range cases {
		if err := job.validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, job)
		}
	}
}

// TestRefusesNonFiniteDomainWidth pins the shard's side of the one
// domain rule (dataset.NewDomain): the width of -1e308:1e308 overflows,
// so its scale would be 0 and every point would map to 0. The worker's
// job check and the serial reference's NormalizeDomain both refuse it,
// naming the axis.
func TestRefusesNonFiniteDomainWidth(t *testing.T) {
	path, ds := writeTestCSV(t, 2, 50, 3, false)
	min, max := []float64{0, -1e308}, []float64{1, 1e308}
	_, err := runJob(context.Background(), Job{Kind: KindCSV, Path: path, H: 4, Min: min, Max: max, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "axis 1") {
		t.Errorf("worker job over domain %v:%v: error %v, want one naming axis 1", min, max, err)
	}
	if err := NormalizeDomain(ds, min, max); err == nil || !strings.Contains(err.Error(), "axis 1") {
		t.Errorf("NormalizeDomain over domain %v:%v: error %v, want one naming axis 1", min, max, err)
	}
}

// TestRunJobRejectsBadH pins that a CSV job without "h" is refused
// with an error on the multi-worker build path too, instead of
// panicking the worker process.
func TestRunJobRejectsBadH(t *testing.T) {
	path, _ := writeTestCSV(t, 3, 100, 5, false)
	for _, h := range []int{0, 2, 61} {
		tr, err := runJob(context.Background(), Job{Kind: KindCSV, Path: path, H: h, Workers: 2})
		if err == nil || tr != nil {
			t.Fatalf("H=%d: got (%v, %v), want an error", h, tr, err)
		}
	}
}

// TestRunRejectsCorruptStream points the coordinator at a rogue server
// that frames garbage as a successful tree response: the checksummed
// snapshot decode must refuse it with a typed shard failure — trusted
// loading skips the structural pass, never the checksums.
func TestRunRejectsCorruptStream(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := readJob(conn); err != nil {
					return
				}
				// Magic + ok status + a plausible size prefix + garbage.
				resp := append([]byte(treeMagic), statusOK)
				body := bytes.Repeat([]byte{0xa5}, 4096)
				var prefix [8]byte
				prefix[0] = byte(len(body))
				prefix[1] = byte(len(body) >> 8)
				conn.Write(append(append(resp, prefix[:]...), body...))
			}()
		}
	}()
	path, _ := writeTestCSV(t, 3, 100, 2, false)
	jobs, err := JobsForCSV(path, false, 1, Job{H: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Run(context.Background(), Options{Addrs: []string{l.Addr().String()}, Jobs: jobs})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("got %v, want *WorkerError", err)
	}
	var fe *treeio.FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want a treeio.FormatError in the chain", err)
	}
}

// TestRunContextCancel pins that a canceled coordinator returns
// promptly with the cancellation, not a hang.
func TestRunContextCancel(t *testing.T) {
	addrs := startWorkers(t, 1)
	path, _ := writeTestCSV(t, 3, 200, 4, false)
	jobs, err := JobsForCSV(path, false, 2, Job{H: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = Run(ctx, Options{Addrs: addrs, Jobs: jobs})
	if err == nil {
		t.Fatal("canceled run succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled in the chain", err)
	}
}
