package dataset

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// readBufferSize is the smallest line buffer ReadCSV reads through; a
// longer line goes to the encoding/csv loop.
const readBufferSize = 64 << 10

// rowBlockFloats is the size of the shared blocks ReadCSV cuts rows from.
const rowBlockFloats = 1 << 16

// firstRows is the row capacity ReadCSV starts a dataset at. Reading a
// file of known size, the reader estimates the file's row count when
// these first rows are in and reserves it in place of their first
// growth step.
const firstRows = 1024

// reserveLineBytes bounds that estimate: it reserves at most one row
// per reserveLineBytes bytes of file. However short the first lines
// are, the reserved row slices (24 bytes each) then take at most 3/4
// of the file's size; rows that really are shorter grow past the
// reserve as they would without one.
const reserveLineBytes = 32

// ReadCSV parses a dataset from CSV. When header is true the first record
// is taken as axis names. Every record must have the same number of
// fields, all parseable as finite floats: NaN and ±Inf literals are
// rejected at parse time (they would poison the min–max normalization
// and every comparison downstream), with the true 1-based line and
// column of the offending value in the error. Ragged records — a row
// with a different field count than the first — are reported the same
// way.
//
// Lines are read one at a time. A regular line — no quote, no '\r'
// before its "\r\n" or "\n" ending, the first record's width, and
// finite numbers the float routine or strconv.ParseFloat reads — is
// split on commas and parsed into a view of a shared block of rows. A
// header line with quotes that encoding/csv reads as one complete
// record on its own is taken as the names, and the lines after it
// stay on this path.
// The first irregular line and everything after it go to the
// encoding/csv loop (readRecords), which accepts, rejects and words its
// errors exactly as it would have from the start of the input.
func ReadCSV(r io.Reader, header bool) (*Dataset, error) {
	return readCSV(r, header, 0)
}

// readCSV is ReadCSV over an input of size bytes, 0 when unknown. With
// a size, the rows grow once from firstRows to the row count the first
// firstRows rows predict (reserveRows) instead of in append's steps.
func readCSV(r io.Reader, header bool, size int64) (*Dataset, error) {
	br := bufio.NewReaderSize(r, readBufferSize)
	var ds *Dataset
	var block []float64
	lines := 0      // lines consumed, blank ones included
	var read int64  // bytes consumed
	var start int64 // bytes consumed before the first data row
	for {
		raw, err := br.ReadSlice('\n')
		if err != nil && err != io.EOF {
			// A line longer than the buffer, or a read error.
			return handOff(raw, br, ds, header, lines)
		}
		if len(raw) == 0 {
			break
		}
		s := trimLineEnd(raw)
		switch {
		case len(s) == 0: // a blank line, skipped as encoding/csv skips it
		case ds == nil:
			if bytes.IndexByte(s, '\r') >= 0 {
				return handOff(raw, br, ds, header, lines)
			}
			if bytes.IndexByte(s, '"') >= 0 {
				names, ok := quotedRecord(s)
				if !header || !ok {
					return handOff(raw, br, ds, header, lines)
				}
				ds = New(len(names), firstRows)
				ds.Names = names
				break
			}
			ds = New(bytes.Count(s, []byte{','})+1, firstRows)
			if header {
				ds.Names = strings.Split(string(s), ",")
				break
			}
			fallthrough
		default:
			d := ds.Dims
			if len(block) < d {
				block = make([]float64, max(rowBlockFloats, d))
			}
			row := block[:d:d]
			if !parseRow(s, row) {
				return handOff(raw, br, ds, header, lines)
			}
			block = block[d:]
			if len(ds.Points) == 0 {
				start = read
			} else if len(ds.Points) == firstRows && size > 0 {
				ds.Points = reserveRows(ds.Points, size-start, read-start)
			}
			ds.Points = append(ds.Points, row)
		}
		read += int64(len(raw))
		lines++
		if err == io.EOF {
			break
		}
	}
	return withRows(ds, nil)
}

// reserveRows returns rows, the first rows of a file whose data rows
// span rest bytes from the first one, in a slice with room for the
// file's estimated row count: rest over the mean length of the first
// rows, which spanned seen bytes, plus 1/16 for lines longer than
// them, and at most one row per reserveLineBytes bytes of rest. It
// returns rows as they are when the estimate is no larger.
func reserveRows(rows [][]float64, rest, seen int64) [][]float64 {
	est := rest / reserveLineBytes
	if seen > 0 {
		est = min(est, rest*int64(len(rows))/seen*17/16)
	}
	if est <= int64(cap(rows)) {
		return rows
	}
	return append(make([][]float64, 0, est), rows...)
}

// trimLineEnd strips one "\n" or "\r\n" line ending.
func trimLineEnd(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
		if n > 1 && line[n-2] == '\r' {
			line = line[:n-2]
		}
	}
	return line
}

// parseRow parses a line of exactly len(row) comma-separated finite
// numbers into row. A quote or a '\r' fails the parse too: neither
// float parser accepts one, and neither accepts a comma, so a line
// with too many fields fails on its last.
func parseRow(s []byte, row []float64) bool {
	last := len(row) - 1
	for j := range row {
		f := s
		if j < last {
			i := bytes.IndexByte(s, ',')
			if i < 0 {
				return false
			}
			f, s = s[:i], s[i+1:]
		}
		v, ok := parseFloat(f)
		if !ok {
			var err error
			v, err = strconv.ParseFloat(string(f), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		row[j] = v
	}
	return true
}

// quotedRecord parses the line s, which holds a quote, with
// encoding/csv on its own. ok is false unless s is exactly one complete
// record: a quoted field that runs past the line, a stray quote or any
// other error leaves the line to the encoding/csv loop.
func quotedRecord(s []byte) (rec []string, ok bool) {
	cr := csv.NewReader(bytes.NewReader(s))
	rec, err := cr.Read()
	if err != nil {
		return nil, false
	}
	if _, err := cr.Read(); err != io.EOF {
		return nil, false
	}
	return rec, true
}

// handOff parses the irregular line raw and the rest of br with the
// encoding/csv loop, keeping the rows of ds read so far. raw is copied,
// since the next read of br overwrites it.
func handOff(raw []byte, br *bufio.Reader, ds *Dataset, header bool, lines int) (*Dataset, error) {
	rest := io.MultiReader(bytes.NewReader(append([]byte(nil), raw...)), br)
	return withRows(readRecords(rest, ds, header, lines))
}

// withRows passes err on, or rejects a dataset without data rows.
func withRows(ds *Dataset, err error) (*Dataset, error) {
	if err != nil {
		return nil, err
	}
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("dataset: no data rows")
	}
	return ds, nil
}

// readRecords is ReadCSV's encoding/csv loop. It appends the records of
// r to ds, or starts ds from r's first record when ds is nil, and
// numbers lines as if r began after the input's first line0 lines.
func readRecords(r io.Reader, ds *Dataset, header bool, line0 int) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	if ds != nil {
		cr.FieldsPerRecord = ds.Dims
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return ds, nil
		}
		if err != nil {
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				if errors.Is(pe.Err, csv.ErrFieldCount) && ds != nil {
					// Read returns the (ragged) record alongside
					// ErrFieldCount, so the message can carry both counts.
					return nil, fmt.Errorf("dataset: line %d: record has %d fields, want %d (as in the first record)",
						line0+pe.Line, len(rec), ds.Dims)
				}
				return nil, fmt.Errorf("dataset: line %d, column %d: %w", line0+pe.Line, pe.Column, pe.Err)
			}
			return nil, fmt.Errorf("dataset: reading CSV: %w", err)
		}
		if ds == nil {
			if len(rec) == 0 {
				return nil, errors.New("dataset: empty CSV record")
			}
			ds = New(len(rec), 1024)
			if header {
				ds.Names = append([]string(nil), rec...)
				continue
			}
		}
		p := make([]float64, len(rec))
		for j, f := range rec {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				line, col := cr.FieldPos(j)
				return nil, fmt.Errorf("dataset: line %d, column %d: value %q is not a number: %w", line0+line, col, f, err)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				line, col := cr.FieldPos(j)
				return nil, fmt.Errorf("dataset: line %d, column %d: non-finite value %q (NaN and ±Inf are not allowed)", line0+line, col, f)
			}
			p[j] = v
		}
		ds.Points = append(ds.Points, p)
	}
}

// WriteCSV writes the dataset as CSV; a header row is emitted when the
// dataset has axis names.
func (ds *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if ds.Names != nil {
		if err := cw.Write(ds.Names); err != nil {
			return fmt.Errorf("dataset: writing CSV header: %w", err)
		}
	}
	rec := make([]string, ds.Dims)
	for _, p := range ds.Points {
		for j, v := range p {
			rec[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("dataset: writing CSV: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// LoadCSVFile reads a dataset from the named CSV file. Parse errors
// are wrapped with the file path, so a batch loader's failure names
// both the file and the offending line/column. The file's size lets
// the reader reserve its rows once, from the length of the first
// firstRows rows, rather than grow them step by step.
func LoadCSVFile(path string, header bool) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	defer f.Close()
	var size int64
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = fi.Size()
	}
	ds, err := readCSV(f, header, size)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ds, nil
}

// SaveCSVFile writes the dataset to the named CSV file.
func (ds *Dataset) SaveCSVFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	bw := bufio.NewWriter(f)
	if err := ds.WriteCSV(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
