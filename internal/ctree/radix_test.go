package ctree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestRadixSortPairsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 5000
	key := make([]uint64, n)
	pay := make([]uint64, n)
	for i := range key {
		key[i] = uint64(rng.Intn(97)) << 17 // few distinct keys → long equal runs
		pay[i] = uint64(i)
	}
	type rec struct{ k, p uint64 }
	want := make([]rec, n)
	for i := range want {
		want[i] = rec{key[i], pay[i]}
	}
	sort.SliceStable(want, func(a, b int) bool { return want[a].k < want[b].k })
	sk, sp := radixSortPairs(key, pay, make([]uint64, n), make([]uint64, n))
	for i := 0; i < n; i++ {
		if sk[i] != want[i].k || sp[i] != want[i].p {
			t.Fatalf("pos %d: got (%d,%d), want (%d,%d) — pair sort unstable or wrong",
				i, sk[i], sp[i], want[i].k, want[i].p)
		}
	}
}

// TestQuantizePackedKeyMatchesSlow pins the table-driven quantizer
// (quantizeFast + keySpread) bit-identical to the slow per-level
// kernel (quantizeLevelH + packedPathKey + leafParity) at every (d, H)
// with a packed key (d·(H-1) <= 64, one to eight spread rows), over
// random points, the point whose every path bit is set, and the
// boundary bit patterns the single-comparison validation must classify
// exactly: ±0.0, the largest float below 1.0, denormals, and every
// invalid shape (1.0, >1, negative, ±Inf, NaN).
func TestQuantizePackedKeyMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := []float64{
		0, math.Copysign(0, -1), 0.5, 0.25, 0.75, 0.9999999999999999,
		math.Nextafter(1, 0), math.SmallestNonzeroFloat64, 1e-300,
		0.125, 0.4999999999999999, 0.5000000000000001,
	}
	bads := []float64{
		1, 1.0000000000000002, 2, -0.5, math.Nextafter(0, -1),
		math.Inf(1), math.Inf(-1), math.NaN(), -1e-300, 1e300,
	}
	layouts := 0
	for d := 1; d <= MaxDims; d++ {
		for H := MinLevels; H <= MaxLevels && d*(H-1) <= 64; H++ {
			layouts++
			ks := newKeySpread(d, H)
			if want := (H - 1 + 7) / 8; len(ks) != want {
				t.Fatalf("d=%d H=%d: %d spread rows, want %d", d, H, len(ks), want)
			}
			check := func(p []float64) {
				t.Helper()
				qi := make([]uint64, d)
				err := quantizeLevelH(p, d, H, qi, 0)
				k, lf, ok := ks.quantizePackedKey(p, H, make([]uint64, d))
				if ok != (err == nil) {
					t.Fatalf("d=%d H=%d point %v: fast ok=%v, slow err=%v — validators disagree", d, H, p, ok, err)
				}
				if !ok {
					return
				}
				if wantK := packedPathKey(qi, d, H); k != wantK {
					t.Fatalf("d=%d H=%d point %v: fast key %#x, slow key %#x", d, H, p, k, wantK)
				}
				if wantL := leafParity(qi, d); lf != wantL {
					t.Fatalf("d=%d H=%d point %v: fast leaf %#x, slow leaf %#x", d, H, p, lf, wantL)
				}
			}
			for trial := 0; trial < 200; trial++ {
				p := make([]float64, d)
				for j := range p {
					p[j] = rng.Float64()
				}
				check(p)
			}
			top := make([]float64, d)
			for j := range top {
				top[j] = math.Nextafter(1, 0)
			}
			check(top)
			base := make([]float64, d)
			for j := range base {
				base[j] = 0.3
			}
			for _, vs := range [][]float64{edges, bads} {
				for _, v := range vs {
					for pos := 0; pos < d; pos += 7 {
						p := slices.Clone(base)
						p[pos] = v
						check(p)
					}
				}
			}
		}
	}
	if layouts != 211 {
		t.Fatalf("swept %d packed (d, H) layouts, want 211", layouts)
	}
}

// locAtLevel computes the relative position bits of the level-h cell
// containing p straight from the definition: bit j is the parity of
// floor(p[j]·2^h), i.e. whether the point is in the upper half of its
// level-(h-1) cell along axis j. It is the per-level oracle of the
// build's single level-H quantization.
func locAtLevel(p []float64, h int) (uint64, error) {
	var loc uint64
	scale := float64(uint64(1) << uint(h))
	for j, v := range p {
		if v < 0 || v >= 1 || math.IsNaN(v) {
			return 0, fmt.Errorf("axis %d value %g outside [0,1): dataset must be normalized", j, v)
		}
		if uint64(v*scale)&1 == 1 {
			loc |= 1 << uint(j)
		}
	}
	return loc, nil
}

// TestQuantizeLevelHMatchesLocAtLevel pins the identity every tree
// producer relies on (batch.go, Insert, MergeFrom's callers): the loc
// of a point's level-h cell, read as bit H-h of its level-H grid
// coordinates (qi[j] >> (H-h) & 1 after quantizeLevelH), equals
// locAtLevel(p, h) for every level h <= H — over random points and the
// values whose products with 2^h are most likely to round: ±0.0, 0.1,
// 0.5, the largest float64 below 1 and a subnormal, at H ∈ {3, 4, 20,
// MaxLevels}.
func TestQuantizeLevelHMatchesLocAtLevel(t *testing.T) {
	const d = 6
	rng := rand.New(rand.NewSource(11))
	var pts [][]float64
	for i := 0; i < 500; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts = append(pts, p)
	}
	edges := []float64{0, math.Copysign(0, -1), 0.1, 0.5, math.Nextafter(1, 0), math.SmallestNonzeroFloat64}
	for _, v := range edges {
		for pos := 0; pos < d; pos++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = edges[(pos+j)%len(edges)]
			}
			p[pos] = v
			pts = append(pts, p)
		}
	}
	for _, H := range []int{3, 4, 20, MaxLevels} {
		qi := make([]uint64, d)
		for _, p := range pts {
			if err := quantizeLevelH(p, d, H, qi, 0); err != nil {
				t.Fatalf("H=%d point %v: %v", H, p, err)
			}
			for h := 1; h <= H; h++ {
				var got uint64
				for j := range qi {
					got |= (qi[j] >> uint(H-h) & 1) << uint(j)
				}
				want, err := locAtLevel(p, h)
				if err != nil {
					t.Fatalf("H=%d point %v level %d: %v", H, p, h, err)
				}
				if got != want {
					t.Fatalf("H=%d point %v level %d: level-H bits give loc %#x, locAtLevel %#x", H, p, h, got, want)
				}
			}
		}
	}
}

// TestQuantizeKeyWordsMatchesSlow is the multi-word-layout twin
// (d·(H-1) > 64 forces the per-level word path).
func TestQuantizeKeyWordsMatchesSlow(t *testing.T) {
	const d, H = 20, 5 // 20·4 = 80 key bits
	rng := rand.New(rand.NewSource(5))
	qi := make([]uint64, d)
	wantKW := make([]uint64, H-1)
	kw := make([]uint64, H-1)
	for trial := 0; trial < 1000; trial++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64()
		}
		if err := quantizeLevelH(p, d, H, qi, 0); err != nil {
			t.Fatal(err)
		}
		pathKeyWords(qi, d, H, wantKW)
		lf, ok := quantizeKeyWords(p, d, H, kw, make([]uint64, d))
		if !ok {
			t.Fatalf("valid point rejected: %v", p)
		}
		if !slices.Equal(kw, wantKW) {
			t.Fatalf("key words diverged: got %v want %v", kw, wantKW)
		}
		if want := leafParity(qi, d); lf != want {
			t.Fatalf("leaf parity diverged: got %#x want %#x", lf, want)
		}
	}
	p := make([]float64, d)
	p[d-1] = math.NaN()
	if _, ok := quantizeKeyWords(p, d, H, kw, qi); ok {
		t.Fatal("NaN accepted by multi-word quantizer")
	}
}

// TestBatchLayoutsMatchPerPointInsert forces each of Build's two sort
// layouts — the pair radix sort of packed keys (d·(H-1) <= 64, a short
// and a long key) and the multi-word comparison fallback — and pins the
// resulting tree cell-identical to per-point insertion, and the radix
// chunks the build reports to the layout.
func TestBatchLayoutsMatchPerPointInsert(t *testing.T) {
	cases := []struct {
		name   string
		d, H   int
		layout string
	}{
		// 5·3 = 15 key bits: pair radix.
		{"pairs_d5_H4", 5, 4, "pairs"},
		// 19·3 = 57 key bits: pair radix.
		{"pairs_d19_H4", 19, 4, "pairs"},
		// 15·5 = 75 key bits > 64: multi-word fallback.
		{"multiword_d15_H6", 15, 6, "multiword"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := 9000 // > buildReportEvery: the count loop passes a checkpoint interval
			ds := uniformDataset(t, tc.d, n, 42)
			// Duplicate a block of points so equal keys actually occur
			// and the tie-break/stability paths are exercised.
			for i := 0; i < 500; i++ {
				ds.Points[n-1-i] = ds.Points[i]
			}
			batched, st, err := buildCounted(ds, tc.H, BuildOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			perPoint := New(tc.d, tc.H)
			for _, p := range ds.Points {
				if err := perPoint.Insert(p); err != nil {
					t.Fatal(err)
				}
			}
			if !treesEqual(t, batched, perPoint) {
				t.Fatal("batched build diverged from per-point insertion")
			}
			wantRadix := tc.layout != "multiword"
			if got := st.RadixSortChunks > 0; got != wantRadix {
				t.Fatalf("radix chunks = %d, want >0 == %v for layout %s",
					st.RadixSortChunks, wantRadix, tc.layout)
			}
		})
	}
}

// TestBatchInsertErrorMessagesUnchanged pins Build's fused fast path
// to the historical per-point error text: the fused validator flags
// the point, the slow validator re-derives the exact message.
func TestBatchInsertErrorMessagesUnchanged(t *testing.T) {
	d := 5
	ds := uniformDataset(t, d, 50, 9)
	ds.Points[17][3] = 1.25
	_, err := Build(ds, 4, BuildOptions{})
	if err == nil {
		t.Fatal("invalid point accepted")
	}
	want := "ctree: point 17: ctree: axis 3 value 1.25 outside [0,1): dataset must be normalized"
	if err.Error() != want {
		t.Fatalf("error text changed:\n got %q\nwant %q", err, want)
	}
	ds.Points[17] = ds.Points[0]
	ds.Points[33] = []float64{0.1, 0.2}
	_, err = Build(ds, 4, BuildOptions{})
	if err == nil {
		t.Fatal("short point accepted")
	}
	want = "ctree: point 33: ctree: point has 2 values, want 5"
	if err.Error() != want {
		t.Fatalf("error text changed:\n got %q\nwant %q", err, want)
	}
}

// BenchmarkQuantize measures the branch-reduced quantizer with the
// table-driven key pack against the slow per-level kernel it
// bypasses, over one build-sized chunk (points/s is the chunk's points
// per wall second).
func BenchmarkQuantize(b *testing.B) {
	const d, H, m = 15, 4, 8192
	pts := uniformDataset(b, d, m, 1).Points
	b.Run("fused", func(b *testing.B) {
		b.ReportAllocs()
		qi := make([]uint64, d)
		var sink uint64
		ks := newKeySpread(d, H)
		for i := 0; i < b.N; i++ {
			for _, p := range pts {
				k, lf, ok := ks.quantizePackedKey(p, H, qi)
				if !ok {
					b.Fatal("rejected valid point")
				}
				sink ^= k + lf
			}
		}
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		_ = sink
	})
	b.Run("slow", func(b *testing.B) {
		b.ReportAllocs()
		qi := make([]uint64, d)
		var sink uint64
		for i := 0; i < b.N; i++ {
			for _, p := range pts {
				if err := quantizeLevelH(p, d, H, qi, 0); err != nil {
					b.Fatal(err)
				}
				sink ^= packedPathKey(qi, d, H) + leafParity(qi, d)
			}
		}
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
		_ = sink
	})
}

// BenchmarkMortonSort measures the build's LSD radix sort
// (radixSortPairs, a payload word riding along) against the generic
// comparison sort, on 8192 random 45-bit path keys.
func BenchmarkMortonSort(b *testing.B) {
	const m = 8192
	rng := rand.New(rand.NewSource(2))
	orig := make([]uint64, m)
	for i := range orig {
		orig[i] = rng.Uint64() & (1<<45 - 1)
	}
	b.Run("radix", func(b *testing.B) {
		b.ReportAllocs()
		a, pay := make([]uint64, m), make([]uint64, m)
		tmp, payTmp := make([]uint64, m), make([]uint64, m)
		for i := 0; i < b.N; i++ {
			copy(a, orig)
			radixSortPairs(a, pay, tmp, payTmp)
		}
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
	b.Run("stdsort", func(b *testing.B) {
		b.ReportAllocs()
		a := make([]uint64, m)
		for i := 0; i < b.N; i++ {
			copy(a, orig)
			slices.Sort(a)
		}
		b.ReportMetric(float64(m)*float64(b.N)/b.Elapsed().Seconds(), "points/s")
	})
}

// leafParity is the slow oracle of the fused quantizer's parity word:
// bit j is the low bit of the axis-j level-H grid coordinate.
func leafParity(qi []uint64, d int) uint64 {
	var leaf uint64
	for j := 0; j < d; j++ {
		leaf |= (qi[j] & 1) << uint(j)
	}
	return leaf
}

// packedPathKey is the per-level oracle of keySpread: it packs a
// quantized point's level-1..H-1 path into one uint64, level-major;
// the caller guarantees d·(H-1) <= 64.
func packedPathKey(qi []uint64, d, H int) uint64 {
	var k uint64
	for h := 1; h <= H-1; h++ {
		var loc uint64
		for j := 0; j < d; j++ {
			loc |= ((qi[j] >> uint(H-h)) & 1) << uint(j)
		}
		k = k<<uint(d) | loc
	}
	return k
}
