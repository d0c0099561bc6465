// Spilled runs: the out-of-core record streams of Build (DESIGN.md
// §10).
//
// With BuildOptions.SpillDir set, Build sorts the dataset one bounded
// run at a time — each run is a sortShard of at most runPoints
// contiguous points, the same quantize-and-sort an in-memory worker
// runs — and writes every sorted run to its own file of fixed-size
// records: the path key words, then the leaf-parity word, all
// little-endian. The merge reads each run back a block at a time into
// the run's slice-backed recordStream, so the sort buffer (the build's
// only η-proportional allocation besides the tree) is bounded by one
// run, and the merge holds one block per run.
//
// Spill files live in a private directory under SpillDir, created by
// MkdirTemp and removed on every exit path — success, error,
// cancellation or injected fault — so an aborted build leaves no
// orphan files behind.
package ctree

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mrcc/internal/dataset"
	"mrcc/internal/fault"
	"mrcc/internal/obs"
)

// spillBlock is how many records a spilled run reads back at a time.
const spillBlock = 1024

// ExternalRecordBytes returns the sort-phase memory of one point: the
// key and leaf-parity columns sortShard holds per point plus their
// sort scratch (the radix ping-pong columns for packed keys; the
// permutation and the sorted copies for multi-word keys). An in-memory
// build holds η·ExternalRecordBytes(d, H) bytes next to the tree and
// Runs.Add one batch's worth; a spilled build holds one run's
// worth, which is how it sizes runs from MemoryLimitBytes.
func ExternalRecordBytes(d, H int) int {
	w := keyWords(d, H)
	if w == 1 {
		return 4 * 8
	}
	return 2*(w+1)*8 + 4
}

// spillReader is a spilled run's open file and how many of its records
// are still on disk.
type spillReader struct {
	f         *os.File
	remaining int
	buf       []byte // block scratch, shared by every run of one build
}

// spillRuns sorts the dataset in runs of at most runPoints points (see
// BuildOptions.MemoryLimitBytes), writes each run to its own file under
// dir and returns the runs as record streams holding their first
// block. Packed keys pack through ks, the spread table of t's (d, H).
// It records the spill traffic on st. On error it also returns
// the runs opened so far, so the caller can close them.
func spillRuns(t *Tree, ds *dataset.Dataset, dir string, ks keySpread, opt BuildOptions, bc *fault.Control, st *obs.BuildCounters) ([]*recordStream, error) {
	n := ds.Len()
	w := keyWords(t.D, t.H)
	runPoints := opt.runPoints
	if runPoints <= 0 {
		runPoints = n
		if opt.MemoryLimitBytes > 0 {
			per := uint64(ExternalRecordBytes(t.D, t.H))
			runPoints = max(int(min(opt.MemoryLimitBytes/per, uint64(n))), buildReportEvery)
		}
	}
	buf := make([]byte, spillBlock*(w+1)*8)
	var runs []*recordStream
	for lo := 0; lo < n; lo += runPoints {
		sorted, err := sortShard(ds, lo, min(lo+runPoints, n), t.H, ks, bc)
		if err != nil {
			return runs, err
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("run-%04d.spill", len(runs))))
		if err != nil {
			return runs, fmt.Errorf("ctree: spilling run %d: %w", len(runs), err)
		}
		rs := &recordStream{src: &spillReader{f: f, remaining: len(sorted.leaf), buf: buf}}
		runs = append(runs, rs)
		if err := writeRun(f, sorted, w, buf); err != nil {
			return runs, fmt.Errorf("ctree: spilling run %d: %w", len(runs)-1, err)
		}
		st.SpillRuns++
		st.SpillBytes += int64(len(sorted.leaf) * (w + 1) * 8)
		if err := rs.src.fill(rs, w); err != nil {
			return runs, err
		}
	}
	return runs, nil
}

// writeRun writes the sorted records to f a block at a time and
// rewinds f for the merge to read them back.
func writeRun(f *os.File, sorted *recordStream, w int, buf []byte) error {
	out := buf[:0]
	for i, lf := range sorted.leaf {
		for _, k := range sorted.keys[i*w : i*w+w] {
			out = binary.LittleEndian.AppendUint64(out, k)
		}
		out = binary.LittleEndian.AppendUint64(out, lf)
		if len(out) == len(buf) || i == len(sorted.leaf)-1 {
			if _, err := f.Write(out); err != nil {
				return err
			}
			out = buf[:0]
		}
	}
	_, err := f.Seek(0, io.SeekStart)
	return err
}

// fill reads the run's next block of records into rs, reusing its
// columns, and rewinds the cursor.
func (sr *spillReader) fill(rs *recordStream, w int) error {
	m := min(sr.remaining, spillBlock)
	b := sr.buf[:m*(w+1)*8]
	if _, err := io.ReadFull(sr.f, b); err != nil {
		return fmt.Errorf("ctree: reading spill run %s: %w", filepath.Base(sr.f.Name()), err)
	}
	keys := growU64(&rs.keys, m*w)
	leaf := growU64(&rs.leaf, m)
	for i := range leaf {
		rec := b[i*(w+1)*8:]
		for k := 0; k < w; k++ {
			keys[i*w+k] = binary.LittleEndian.Uint64(rec[k*8:])
		}
		leaf[i] = binary.LittleEndian.Uint64(rec[w*8:])
	}
	rs.pos = 0
	sr.remaining -= m
	return nil
}

// growU64 resizes *s to n elements, reallocating only when the
// capacity is short, and returns the sized slice.
func growU64(s *[]uint64, n int) []uint64 {
	if cap(*s) < n {
		*s = make([]uint64, n)
	}
	*s = (*s)[:n]
	return *s
}

// closeRuns closes the spilled runs' files.
func closeRuns(runs []*recordStream) {
	for _, rs := range runs {
		rs.src.f.Close()
	}
}
