package dataset

import (
	"bytes"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadCSV checks the CSV reader never panics, that anything it
// accepts passes Validate (non-finite values are rejected at parse
// time, not deferred to validation), and that accepted data
// round-trips through WriteCSV. With and without a header it must
// agree with the encoding/csv loop run from the start of the input:
// the same values bit for bit, the same names, the same error text.
func FuzzReadCSV(f *testing.F) {
	f.Add("1,2\n3,4\n")
	f.Add("x,y\n1,2\n")
	f.Add("1.5e308,-2\n")
	f.Add("")
	f.Add("a,b\n")
	f.Add("1\n2,3\n")
	f.Add("NaN,1\n")
	f.Add("1,+Inf\n")
	f.Add("-Inf,0\n")
	f.Add("1,2\n3\n")
	f.Add("1,2\n3,4,5\n")
	f.Add("1,2\n\"3,4\n")
	f.Add("x,y\r\n1,2\r\n\r\n3,4\r\n")
	f.Add("1,2\n\n\n3,4")
	f.Add("1,2\n\"3\",4\n5,6\n")
	f.Add("\"1,5\",2\n3,4\n")
	f.Add("1,2\r")
	f.Add("1,2\n3,4\r")
	f.Add("1,2\r\r\n")
	f.Add("0x1p-2,1\n1_0,2\n")
	f.Add("1e400,1\n")
	f.Add("1,2,\n")
	f.Add("1, 2\n")
	f.Add("4.9e-324,.5\n5.,-0\n")
	f.Add("0.12345678901234567,1.2345678901234567e-05\n")
	f.Add("\"a0\",\"a1\",\"a 2\"\n0.5,1,2\n3,4,5\n")
	f.Add("\"a,b\",c\n1,2\n")
	f.Add("\"a\nb\",c\n1,2\n")
	f.Add("a\"b,c\n1,2\n")
	f.Add("\"a\"\"b\",c\n1,2,3\n")
	f.Add("\"a\" ,c\n1,2\n")
	f.Fuzz(func(t *testing.T, input string) {
		for _, header := range []bool{false, true} {
			got, err := ReadCSV(strings.NewReader(input), header)
			want, wantErr := withRows(readRecords(strings.NewReader(input), nil, header, 0))
			if errText(err) != errText(wantErr) {
				t.Fatalf("header=%v: error %q, encoding/csv loop says %q", header, errText(err), errText(wantErr))
			}
			if err != nil {
				continue
			}
			if got.Dims != want.Dims || got.Len() != want.Len() || !reflect.DeepEqual(got.Names, want.Names) {
				t.Fatalf("header=%v: shape (%d, %d, %q), encoding/csv loop gives (%d, %d, %q)",
					header, got.Len(), got.Dims, got.Names, want.Len(), want.Dims, want.Names)
			}
			for i, p := range got.Points {
				if len(p) != got.Dims || cap(p) != got.Dims {
					t.Fatalf("header=%v: row %d has len %d cap %d, want %d", header, i, len(p), cap(p), got.Dims)
				}
				for j, v := range p {
					if math.Float64bits(v) != math.Float64bits(want.Points[i][j]) {
						t.Fatalf("header=%v: point %d axis %d = %v, encoding/csv loop gives %v", header, i, j, v, want.Points[i][j])
					}
				}
			}
		}

		ds, err := ReadCSV(strings.NewReader(input), false)
		if err != nil {
			return
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("accepted dataset fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := ds.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted dataset failed to serialize: %v", err)
		}
		back, err := ReadCSV(&buf, false)
		if err != nil {
			t.Fatalf("serialized dataset failed to parse: %v", err)
		}
		if back.Len() != ds.Len() || back.Dims != ds.Dims {
			t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)",
				ds.Len(), ds.Dims, back.Len(), back.Dims)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzParseFloat checks the float routine against strconv.ParseFloat:
// whenever the routine decides, ParseFloat must accept the same text
// and return the same bits.
func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{
		"4.9e-324", "2.2250738585072011e-308", "9007199254740993", "1e23",
		"-0", ".5", "5.", "1e", "1_0", "0x1p-2", "Inf",
		"12345678901234567890", "1.7976931348623159e308",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		checkParseFloat(t, s)
	})
}

// checkParseFloat fails t if parseFloat decides s differently from
// strconv.ParseFloat, and reports whether the routine decided.
func checkParseFloat(t *testing.T, s string) bool {
	t.Helper()
	v, ok := parseFloat([]byte(s))
	if !ok {
		return false
	}
	want, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parseFloat(%q) = %v, but strconv.ParseFloat fails: %v", s, v, err)
	}
	if math.Float64bits(v) != math.Float64bits(want) {
		t.Fatalf("parseFloat(%q) = %v (%#x), strconv.ParseFloat gives %v (%#x)",
			s, v, math.Float64bits(v), want, math.Float64bits(want))
	}
	return true
}
