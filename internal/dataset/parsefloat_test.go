package dataset

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestParseFloatSweep compares the float routine with
// strconv.ParseFloat on 2^20 seeded strings: the shortest form of
// uniform [0,1) values (what the synthetic generator writes) and of
// random bit patterns, and 'e' and 'f' forms at random precision. The
// routine must agree bit for bit whenever it decides, and decide almost
// every shortest-form value.
func TestParseFloatSweep(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	const n = 1 << 20
	var tried, decided [4]int
	for i := 0; i < n; i++ {
		kind := i % 4
		var s string
		switch kind {
		case 0:
			s = strconv.FormatFloat(r.Float64(), 'g', -1, 64)
		case 1:
			s = strconv.FormatFloat(math.Float64frombits(r.Uint64()), 'g', -1, 64)
		case 2:
			s = strconv.FormatFloat(math.Float64frombits(r.Uint64()), 'e', r.Intn(25), 64)
		case 3:
			v := (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(30)-8))
			s = strconv.FormatFloat(v, 'f', r.Intn(25), 64)
		}
		tried[kind]++
		if checkParseFloat(t, s) {
			decided[kind]++
		}
	}
	for kind, name := range []string{"'g' of [0,1)", "'g' of random bits", "'e'", "'f'"} {
		t.Logf("%s: routine decided %d of %d", name, decided[kind], tried[kind])
	}
	if decided[0] < tried[0]*99/100 {
		t.Errorf("routine decided only %d of %d shortest-form [0,1) values", decided[0], tried[0])
	}
}

// TestParseFloatEdges pins the syntax the routine must decide and the
// syntax it must leave to strconv.ParseFloat.
func TestParseFloatEdges(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{"0", true}, {"-0", true}, {"+1", true}, {".5", true}, {"5.", true},
		{"1e5", true}, {"1E+05", true}, {"-2.5e-3", true}, {"0e99999999999", true},
		{"00000000000000000000000000001", true}, {"0.0000000000000000000000000001", true},
		{"9007199254740992", true}, {"1234567890123456789", true},
		{"9007199254740993", false}, {"12345678901234567890", false}, {"1.0000000000000000000", false},
		{"", false}, {"+", false}, {".", false}, {"1e", false}, {"1e+", false}, {"e5", false},
		{"1_0", false}, {"0x1p-2", false}, {"Inf", false}, {"NaN", false}, {" 1", false},
		{"1,", false}, {"\"1\"", false}, {"1\r", false}, {"1e400", false}, {"4.9e-324", false},
	} {
		if ok := checkParseFloat(t, c.in); ok != c.ok {
			t.Errorf("parseFloat(%q) decided = %v, want %v", c.in, ok, c.ok)
		}
	}
}

var floatSink float64

// BenchmarkParseFloat times one field per operation, strconv.ParseFloat
// against the routine, on the shortest form of uniform [0,1) values (16
// to 17 significant digits, as the synthetic generator writes them).
func BenchmarkParseFloat(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	strs := make([]string, 4096)
	fields := make([][]byte, len(strs))
	for i := range strs {
		strs[i] = strconv.FormatFloat(r.Float64(), 'g', -1, 64)
		fields[i] = []byte(strs[i])
	}
	b.Run("strconv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := strconv.ParseFloat(strs[i%len(strs)], 64)
			if err != nil {
				b.Fatal(err)
			}
			floatSink = v
		}
	})
	b.Run("routine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, ok := parseFloat(fields[i%len(fields)])
			if !ok {
				b.Fatalf("routine gave up on %q", fields[i%len(fields)])
			}
			floatSink = v
		}
	})
}
