package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func TestCSVRoundTrip(t *testing.T) {
	ds, _ := FromRows([][]float64{{1.5, -2}, {0.25, 1e-9}})
	ds.Names = []string{"x", "y"}
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dims != 2 || back.Len() != 2 {
		t.Fatalf("round trip shape d=%d n=%d", back.Dims, back.Len())
	}
	if back.Names[0] != "x" || back.Names[1] != "y" {
		t.Errorf("names lost: %v", back.Names)
	}
	for i := range ds.Points {
		for j := range ds.Points[i] {
			if ds.Points[i][j] != back.Points[i][j] {
				t.Errorf("point %d axis %d: %g != %g", i, j, ds.Points[i][j], back.Points[i][j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), false); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3,nope\n"), false); err == nil {
		t.Error("non-numeric field accepted")
	}
	if _, err := ReadCSV(strings.NewReader("x,y\n"), true); err == nil {
		t.Error("header-only input accepted")
	}
	if _, err := ReadCSV(strings.NewReader("1,2\n3\n"), false); err == nil {
		t.Error("ragged CSV accepted")
	}
}

// TestReadCSVContract pins ReadCSV's accepted inputs and its exact
// error text: line and column numbers, wrapped strconv and
// encoding/csv errors, blank lines, CRLF endings and quoting.
func TestReadCSVContract(t *testing.T) {
	ioErr := errors.New("disk on fire")
	long := strings.Repeat("0", 100000) + "4" // longer than any read buffer
	const nonFinite = "(NaN and ±Inf are not allowed)"
	bad := []struct {
		name   string
		r      io.Reader
		header bool
		want   string
	}{
		{"not a number", strings.NewReader("1,2\n3,nope\n"), false,
			`dataset: line 2, column 3: value "nope" is not a number: strconv.ParseFloat: parsing "nope": invalid syntax`},
		{"NaN after blank lines", strings.NewReader("1,2\n\n\n3,NaN\n"), false,
			`dataset: line 4, column 3: non-finite value "NaN" ` + nonFinite},
		{"+Inf with CRLF", strings.NewReader("1,2\r\n3,+Inf\r\n"), false,
			`dataset: line 2, column 3: non-finite value "+Inf" ` + nonFinite},
		{"ragged after header", strings.NewReader("x,y\n1,2\n3\n"), true,
			`dataset: line 3: record has 1 fields, want 2 (as in the first record)`},
		{"bare quote", strings.NewReader("1,2\n3,4\"\n"), false,
			`dataset: line 2, column 4: bare " in non-quoted-field`},
		{"unterminated quote", strings.NewReader("1,2\n\"3,4\n"), false,
			`dataset: line 2, column 6: extraneous or missing " in quoted-field`},
		{"leading space", strings.NewReader("1, 2\n"), false,
			`dataset: line 1, column 3: value " 2" is not a number: strconv.ParseFloat: parsing " 2": invalid syntax`},
		{"trailing comma", strings.NewReader("1,2,\n"), false,
			`dataset: line 1, column 5: value "" is not a number: strconv.ParseFloat: parsing "": invalid syntax`},
		{"out of range", strings.NewReader("1e400,1\n"), false,
			`dataset: line 1, column 1: value "1e400" is not a number: strconv.ParseFloat: parsing "1e400": value out of range`},
		{"error after a line longer than the read buffer", strings.NewReader("1,2\n3," + long + "\n5,x\n"), false,
			`dataset: line 3, column 3: value "x" is not a number: strconv.ParseFloat: parsing "x": invalid syntax`},
		{"I/O error", io.MultiReader(strings.NewReader("1,2\n3,"), iotest.ErrReader(ioErr)), false,
			`dataset: reading CSV: disk on fire`},
		{"empty", strings.NewReader(""), false, `dataset: no data rows`},
		{"header only", strings.NewReader("x,y\n"), true, `dataset: no data rows`},
	}
	for _, c := range bad {
		ds, err := ReadCSV(c.r, c.header)
		if err == nil {
			t.Errorf("%s: accepted %d rows, want error %q", c.name, ds.Len(), c.want)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, err, c.want)
		}
	}

	good := []struct {
		in   string
		want [][]float64
	}{
		{"\"1\",2\n3,4\n", [][]float64{{1, 2}, {3, 4}}},
		{"0x1p-2,1\n", [][]float64{{0.25, 1}}},
		{"1,2\n3," + long + "\n", [][]float64{{1, 2}, {3, 4}}},
	}
	for k, c := range good {
		ds, err := ReadCSV(strings.NewReader(c.in), false)
		if err != nil {
			t.Errorf("input %d: %v", k, err)
			continue
		}
		if ds.Len() != len(c.want) {
			t.Errorf("input %d: %d rows, want %d", k, ds.Len(), len(c.want))
			continue
		}
		for i, row := range c.want {
			for j, v := range row {
				if ds.Points[i][j] != v {
					t.Errorf("input %d: point %d axis %d = %g, want %g", k, i, j, ds.Points[i][j], v)
				}
			}
		}
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	ds, _ := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if err := ds.SaveCSVFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSVFile(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Dims != 3 {
		t.Fatalf("shape d=%d n=%d", back.Dims, back.Len())
	}
	if _, err := LoadCSVFile(filepath.Join(dir, "absent.csv"), false); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadCSVFileReservesRows pins the file loader's row reserve: on
// each input LoadCSVFile returns the dataset ReadCSV returns from the
// same bytes, and its row capacity stays within the reserve's bound —
// firstRows, one row per reserveLineBytes bytes of file, or the
// doubling of rows that outgrew the reserve, whichever is largest.
func TestLoadCSVFileReservesRows(t *testing.T) {
	const n = 3 * firstRows
	rows := func(b *strings.Builder, from, to int, row func(i int) string) {
		for i := from; i < to; i++ {
			b.WriteString(row(i))
		}
	}
	short := func(i int) string { return fmt.Sprintf("%d,%d,%d\n", i%10, i%7, i%3) }
	long := func(i int) string {
		return fmt.Sprintf("%.17f,%.17f,%.17f\n", float64(i)/n, float64(i%97)/97, float64(i%13)/13)
	}
	build := func(parts ...func(b *strings.Builder)) string {
		var b strings.Builder
		for _, p := range parts {
			p(&b)
		}
		return b.String()
	}
	cases := []struct {
		name   string
		in     string
		header bool
	}{
		{"header", build(func(b *strings.Builder) {
			b.WriteString("x,y,z\n")
			rows(b, 0, n, long)
		}), true},
		{"short first rows, then long", build(func(b *strings.Builder) {
			rows(b, 0, firstRows, short)
			rows(b, firstRows, 8*n, long)
		}), false},
		{"long first rows, then short", build(func(b *strings.Builder) {
			rows(b, 0, firstRows, long)
			rows(b, firstRows, 8*n, short)
		}), false},
		{"CRLF", strings.ReplaceAll(build(func(b *strings.Builder) { rows(b, 0, n, long) }), "\n", "\r\n"), false},
		{"blank lines", strings.ReplaceAll(build(func(b *strings.Builder) { rows(b, 0, n, long) }), "\n", "\n\n"), false},
		{"one row", "0.25,0.5,0.75\n", false},
		{"irregular line at the start", build(func(b *strings.Builder) {
			b.WriteString("\"0.5\",1,2\n")
			rows(b, 1, n, long)
		}), false},
		{"irregular line after the reserve", build(func(b *strings.Builder) {
			rows(b, 0, 2*firstRows, long)
			b.WriteString("\"0.5\",1,2\n")
			rows(b, 2*firstRows+1, n, long)
		}), false},
	}
	dir := t.TempDir()
	for k, c := range cases {
		path := filepath.Join(dir, fmt.Sprintf("%d.csv", k))
		if err := os.WriteFile(path, []byte(c.in), 0o644); err != nil {
			t.Fatal(err)
		}
		want, err := ReadCSV(strings.NewReader(c.in), c.header)
		if err != nil {
			t.Fatalf("%s: ReadCSV: %v", c.name, err)
		}
		got, err := LoadCSVFile(path, c.header)
		if err != nil {
			t.Fatalf("%s: LoadCSVFile: %v", c.name, err)
		}
		if got.Dims != want.Dims || !reflect.DeepEqual(got.Names, want.Names) || !reflect.DeepEqual(got.Points, want.Points) {
			t.Fatalf("%s: LoadCSVFile read another dataset than ReadCSV (%d×%d against %d×%d)",
				c.name, got.Len(), got.Dims, want.Len(), want.Dims)
		}
		bound := max(firstRows, len(c.in)/reserveLineBytes, 2*got.Len())
		if cap(got.Points) > bound {
			t.Fatalf("%s: %d rows in a capacity of %d, over the bound %d", c.name, got.Len(), cap(got.Points), bound)
		}
	}
}

// TestReserveRows pins the reserve's estimate: the first rows' mean
// length predicts the rest plus 1/16, one row per reserveLineBytes
// bytes caps it, and an estimate within the current capacity reserves
// nothing.
func TestReserveRows(t *testing.T) {
	first := make([][]float64, firstRows)
	for _, c := range []struct {
		name       string
		rest, seen int64
		want       int
	}{
		{"mean length", 100 * firstRows * 40, firstRows * 40, 100 * firstRows * 17 / 16},
		{"short first rows", 100 * firstRows * 40, firstRows * 4, 100 * firstRows * 40 / reserveLineBytes},
		{"estimate within the capacity", firstRows * 16, firstRows * 17, firstRows},
	} {
		got := reserveRows(first, c.rest, c.seen)
		if len(got) != firstRows || cap(got) != c.want {
			t.Errorf("%s: reserved %d rows holding %d, want %d holding %d", c.name, cap(got), len(got), c.want, firstRows)
		}
	}
}

// TestReadCSVQuotedHeaderFastPath pins that a quoted header keeps the
// data rows on the line-at-a-time path: a 100k × 14 file whose header
// is quoted reads into the same Dataset as with the plain header, with
// at most 32 allocations more: the one-line encoding/csv read of the
// header (its reader, buffers and record) takes 16 here, whatever the
// row count. Handed to the encoding/csv loop, the quoted file allocated
// once per row (about 200,000 times against 46).
func TestReadCSVQuotedHeaderFastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("reads a 100k-row file four times")
	}
	const n, d = 100000, 14
	var body bytes.Buffer
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if j > 0 {
				body.WriteByte(',')
			}
			fmt.Fprintf(&body, "%.6f", float64((i*31+j*17)%1000)/1000)
		}
		body.WriteByte('\n')
	}
	var plain, quoted bytes.Buffer
	for j := 0; j < d; j++ {
		if j > 0 {
			plain.WriteByte(',')
			quoted.WriteByte(',')
		}
		fmt.Fprintf(&plain, "a%d", j)
		fmt.Fprintf(&quoted, "%q", fmt.Sprintf("a%d", j))
	}
	plain.WriteString("\n" + body.String())
	quoted.WriteString("\n" + body.String())
	read := func(b []byte) (*Dataset, float64) {
		var ds *Dataset
		allocs := testing.AllocsPerRun(1, func() {
			var err error
			if ds, err = ReadCSV(bytes.NewReader(b), true); err != nil {
				t.Fatal(err)
			}
		})
		return ds, allocs
	}
	want, plainAllocs := read(plain.Bytes())
	got, quotedAllocs := read(quoted.Bytes())
	if !reflect.DeepEqual(got.Names, want.Names) || got.Dims != want.Dims || !reflect.DeepEqual(got.Points, want.Points) {
		t.Fatalf("quoted header read (%d rows, names %q), plain header (%d rows, names %q)", got.Len(), got.Names, want.Len(), want.Names)
	}
	if quotedAllocs > plainAllocs+32 {
		t.Fatalf("quoted header: %.0f allocations, plain header %.0f: the data rows left the fast path", quotedAllocs, plainAllocs)
	}
	t.Logf("allocations: plain header %.0f, quoted header %.0f", plainAllocs, quotedAllocs)
}
