package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mrcc/internal/core"
	"mrcc/internal/ctree"
	"mrcc/internal/dataset"
	"mrcc/internal/shard"
	"mrcc/internal/synthetic"
	"mrcc/internal/treeio"
)

// startWorkers runs n in-process shard workers on loopback and returns
// their addresses as a -worker-addrs value.
func startWorkers(t *testing.T, n int) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		go shard.Serve(ctx, l)
	}
	return strings.Join(addrs, ",")
}

// writeCSV emits n pseudo-random d-dimensional rows in [0,1).
func writeCSV(t *testing.T, d, n int, header bool) string {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	var sb strings.Builder
	if header {
		for j := 0; j < d; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "axis%d", j)
		}
		sb.WriteByte('\n')
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%.6f", rng.Float64()*0.999)
		}
		sb.WriteByte('\n')
	}
	path := filepath.Join(t.TempDir(), "points.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCoordinatorEndToEnd drives the full coordinator path against
// real TCP workers: partition, build, merge, serial byte-identity
// check, snapshot output, clustering.
func TestCoordinatorEndToEnd(t *testing.T) {
	csv := writeCSV(t, 5, 4000, false)
	out := filepath.Join(t.TempDir(), "tree.snap")
	var stdout, stderr bytes.Buffer
	code := realMain(context.Background(), []string{
		"-input", csv, "-shards", "4",
		"-worker-addrs", startWorkers(t, 2),
		"-check-serial", "-out", out, "-cluster", "-stats",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{"4000 points", "check-serial: ok", "saved ", "correlation clusters"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout.String())
		}
	}
	// The -out snapshot is a valid warm-start source.
	tr, _, err := treeio.LoadFile(out, treeio.LoadOptions{TrustChecksums: true})
	if err != nil {
		t.Fatalf("reloading -out snapshot: %v", err)
	}
	if tr.Eta != 4000 || tr.D != 5 {
		t.Fatalf("snapshot holds eta=%d d=%d", tr.Eta, tr.D)
	}
}

// TestCoordinatorDomainAndHeader covers the raw-domain embedding path:
// header CSV with values in [0,100) plus -dims/-domain, checked
// against the serial reference.
func TestCoordinatorDomainAndHeader(t *testing.T) {
	d, n := 4, 1500
	rng := rand.New(rand.NewSource(7))
	var sb strings.Builder
	sb.WriteString("a,b,c,d\n")
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%.4f", rng.Float64()*100)
		}
		sb.WriteByte('\n')
	}
	csv := filepath.Join(t.TempDir(), "raw.csv")
	if err := os.WriteFile(csv, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := realMain(context.Background(), []string{
		"-input", csv, "-header", "-shards", "3",
		"-dims", "4", "-domain", "0:100",
		"-worker-addrs", startWorkers(t, 3),
		"-check-serial",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "check-serial: ok") {
		t.Fatalf("no serial-equivalence confirmation:\n%s", stdout.String())
	}
}

// TestCoordinatorPerShardInputs covers -inputs: one whole-file job per
// CSV, serial reference concatenated in shard order.
func TestCoordinatorPerShardInputs(t *testing.T) {
	full, err := dataset.LoadCSVFile(writeCSV(t, 3, 900, false), false)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 3; i++ {
		part := &dataset.Dataset{Dims: 3, Points: full.Points[i*300 : (i+1)*300]}
		p := filepath.Join(dir, fmt.Sprintf("part%d.csv", i))
		if err := part.SaveCSVFile(p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	var stdout, stderr bytes.Buffer
	code := realMain(context.Background(), []string{
		"-inputs", strings.Join(paths, ","),
		"-worker-addrs", startWorkers(t, 2),
		"-check-serial",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "900 points") || !strings.Contains(stdout.String(), "check-serial: ok") {
		t.Fatalf("unexpected output:\n%s", stdout.String())
	}
}

// TestClusterOverShardTreesMatchesBuild is the cross-path pin of the
// unmerged -cluster: with neither -out nor -check-serial no union is
// written, and the clustering runs over the shard trees as they are.
// At 1 and 4 shards it must print the cluster lines core.Run gives
// over ctree.Build of the same rows.
func TestClusterOverShardTreesMatchesBuild(t *testing.T) {
	ds, _, err := synthetic.Generate(synthetic.Config{
		Dims: 6, Points: 4000, Clusters: 3, NoiseFrac: 0.1,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(t.TempDir(), "clusters.csv")
	if err := ds.SaveCSVFile(csv); err != nil {
		t.Fatal(err)
	}
	rows, err := dataset.LoadCSVFile(csv, false)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ctree.Build(rows, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(context.Background(), core.Input{Trees: []*ctree.Tree{tree}}, core.Config{Alpha: core.DefaultAlpha, H: core.DefaultH})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters() == 0 {
		t.Fatal("the reference run finds no cluster; the comparison is vacuous")
	}
	want := []string{fmt.Sprintf("found %d correlation clusters (%d beta-clusters)", res.NumClusters(), len(res.Betas))}
	for _, c := range res.Clusters {
		want = append(want, fmt.Sprintf("  cluster %d: relevant axes %v", c.ID, c.RelevantAxes()))
	}
	for _, shards := range []string{"1", "4"} {
		var stdout, stderr bytes.Buffer
		code := realMain(context.Background(), []string{
			"-input", csv, "-shards", shards,
			"-worker-addrs", startWorkers(t, 2), "-cluster",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("shards=%s: exit %d, stderr: %s", shards, code, stderr.String())
		}
		var got []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "union:") {
				t.Errorf("shards=%s: -cluster alone wrote a union: %q", shards, line)
			}
			if strings.HasPrefix(line, "found ") || strings.HasPrefix(line, "  cluster ") {
				got = append(got, line)
			}
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("shards=%s: cluster lines\n%s\nwant (core.Run over ctree.Build)\n%s",
				shards, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestWorkerAddrsValidateStreams pins that a coordinator validates in
// full the shard trees of workers it did not start: a fake worker
// behind -worker-addrs answers its job with a snapshot whose last leaf
// claims 1000 more points than its parent places there, every CRC
// recomputed, which a checksum-trusting decode accepts. The command
// must exit 1 and name the snapshot's format error.
func TestWorkerAddrsValidateStreams(t *testing.T) {
	const d, n = 5, 2000
	csv := writeCSV(t, d, n, false)
	ds, err := dataset.LoadCSVFile(csv, false)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(ds, core.DefaultH, ctree.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Columns()
	c.N = slices.Clone(c.N)
	c.N[len(c.N)-1] += 1000
	forged := forgeSnapshot(t, tr, c)
	if _, _, err := treeio.Load(bytes.NewReader(forged), int64(len(forged)), treeio.LoadOptions{TrustChecksums: true}); err != nil {
		t.Fatalf("a checksum-trusting load refused the forgery (%v); the test is vacuous", err)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// The job: an 8-byte magic, a u32 payload length, the payload.
		hdr := make([]byte, 12)
		if _, err := io.ReadFull(conn, hdr); err != nil {
			t.Error(err)
			return
		}
		if _, err := io.CopyN(io.Discard, conn, int64(binary.LittleEndian.Uint32(hdr[8:]))); err != nil {
			t.Error(err)
			return
		}
		resp := append([]byte("MRSHTRE1"), 0)
		resp = binary.LittleEndian.AppendUint64(resp, uint64(len(forged)))
		if _, err := conn.Write(append(resp, forged...)); err != nil {
			t.Error(err)
		}
	}()

	var stdout, stderr bytes.Buffer
	code := realMain(context.Background(), []string{
		"-input", csv, "-shards", "1", "-worker-addrs", l.Addr().String(),
	}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "treeio: tree:") {
		t.Fatalf("exit %d, stderr %q: want exit 1 naming the snapshot's format error (stdout %q)", code, stderr.String(), stdout.String())
	}
}

// forgeSnapshot returns tr's snapshot with its columns replaced by c and
// every checksum recomputed, so only a structural validation can tell.
func forgeSnapshot(t *testing.T, tr *ctree.Tree, c ctree.Columns) []byte {
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
	return append(hdr, cols.Bytes()...)
}

// TestValidation pins exit code 2 for impossible flag combinations and
// exit 1 for runtime failures.
func TestValidation(t *testing.T) {
	cases := [][]string{
		{},                                // no input source
		{"-input", "a", "-inputs", "b"},   // two sources
		{"-input", "a", "-H", "2"},        // H too small
		{"-input", "a", "-domain", "0:1"}, // domain without dims
		{"-snapshots", "a.snap", "-check-serial"}, // snapshots can't be checked
		{"-input", "a", "-alpha", "2"},            // alpha out of range
		{"-inputs", "a.csv", "-shards", "3"},      // shards without -input
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := realMain(context.Background(), args, &stdout, &stderr); code != 2 {
			t.Errorf("args %v: exit %d, want 2 (stderr: %s)", args, code, stderr.String())
		}
	}
	// Runtime failure: nonexistent input with live workers.
	var stdout, stderr bytes.Buffer
	code := realMain(context.Background(), []string{
		"-input", filepath.Join(t.TempDir(), "absent.csv"),
		"-shards", "2", "-worker-addrs", startWorkers(t, 1),
	}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("absent input: exit %d, want 1", code)
	}
}
