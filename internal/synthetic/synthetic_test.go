package synthetic

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"mrcc/internal/dataset"
)

func TestGenerateShapeAndLabels(t *testing.T) {
	cfg := Config{Dims: 7, Points: 5000, Clusters: 4, NoiseFrac: 0.2,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 3}
	ds, gt, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != cfg.Points || ds.Dims != cfg.Dims {
		t.Fatalf("shape d=%d n=%d", ds.Dims, ds.Len())
	}
	if len(gt.Labels) != cfg.Points || gt.NumClusters() != cfg.Clusters {
		t.Fatalf("ground truth shape: %d labels, %d clusters", len(gt.Labels), gt.NumClusters())
	}
	noise := 0
	counts := make([]int, cfg.Clusters)
	for _, l := range gt.Labels {
		if l == Noise {
			noise++
			continue
		}
		if l < 0 || l >= cfg.Clusters {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	wantNoise := int(float64(cfg.Points) * cfg.NoiseFrac)
	if noise != wantNoise {
		t.Errorf("noise points = %d, want %d", noise, wantNoise)
	}
	for k, c := range counts {
		if c == 0 {
			t.Errorf("cluster %d is empty", k)
		}
	}
	if !ds.IsNormalized() {
		t.Error("generated data must live in [0,1)^d")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{Dims: 1, Points: 100, Clusters: 1},
		{Dims: 5, Points: 2, Clusters: 5},
		{Dims: 5, Points: 100, Clusters: 0},
		{Dims: 5, Points: 100, Clusters: 1, NoiseFrac: 1.0},
		{Dims: 5, Points: 100, Clusters: 1, NoiseFrac: -0.1},
	}
	for i, cfg := range bad {
		if _, _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Dims: 6, Points: 1000, Clusters: 3, NoiseFrac: 0.1,
		MinClusterDim: 3, MaxClusterDim: 5, Seed: 9}
	a, ga, _ := Generate(cfg)
	b, gb, _ := Generate(cfg)
	for i := range a.Points {
		if ga.Labels[i] != gb.Labels[i] {
			t.Fatal("labels differ between identical seeds")
		}
		for j := range a.Points[i] {
			if a.Points[i][j] != b.Points[i][j] {
				t.Fatal("points differ between identical seeds")
			}
		}
	}
}

func TestClusterDimensionalityInRange(t *testing.T) {
	cfg := Config{Dims: 10, Points: 2000, Clusters: 5, NoiseFrac: 0.1,
		MinClusterDim: 4, MaxClusterDim: 7, Seed: 21}
	_, gt, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, rel := range gt.Relevant {
		n := 0
		for _, r := range rel {
			if r {
				n++
			}
		}
		if n < cfg.MinClusterDim || n > cfg.MaxClusterDim {
			t.Errorf("cluster %d has %d relevant axes, want in [%d,%d]",
				k, n, cfg.MinClusterDim, cfg.MaxClusterDim)
		}
	}
}

func TestPairwiseSharedAndSeparated(t *testing.T) {
	// The generator guarantees every pair of clusters shares at least
	// one relevant axis and is band-separated on at least one of them;
	// this is what makes the ground truth recoverable by a subspace-box
	// model (see DESIGN.md).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 6 + rng.Intn(10)
		k := 2 + rng.Intn(6)
		specs := placeClusters(rand.New(rand.NewSource(seed)), d, k, 3, d/2+2)
		for a := 0; a < k; a++ {
			for b := a + 1; b < k; b++ {
				shared := sharedAxes(specs[a].rel, specs[b].rel)
				if shared == nil {
					return false
				}
				sep := false
				for _, j := range shared {
					if math.Abs(specs[a].mean[j]-specs[b].mean[j]) > 0.4 {
						sep = true
					}
				}
				if !sep {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRotatePreservesMembershipGeometry(t *testing.T) {
	// Rotation + renormalization keeps the dataset in the unit cube and
	// keeps cluster points near each other (pairwise distances shrink or
	// stay similar up to the renormalization scale, never explode).
	cfg := Config{Dims: 8, Points: 2000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 5, MaxClusterDim: 7, Seed: 33}
	ds, gt, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rot, _, err := Generate(Config{Dims: 8, Points: 2000, Clusters: 2, NoiseFrac: 0.1,
		MinClusterDim: 5, MaxClusterDim: 7, Seed: 33, Rotations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rot.IsNormalized() {
		t.Fatal("rotated dataset must stay in the unit cube")
	}
	// Compare mean intra-cluster spread before and after.
	spread := func(points [][]float64, labels []int, k int) float64 {
		var members [][]float64
		for i, l := range labels {
			if l == k {
				members = append(members, points[i])
			}
		}
		center := make([]float64, len(members[0]))
		for _, p := range members {
			for j, v := range p {
				center[j] += v
			}
		}
		for j := range center {
			center[j] /= float64(len(members))
		}
		s := 0.0
		for _, p := range members {
			for j, v := range p {
				s += (v - center[j]) * (v - center[j])
			}
		}
		return math.Sqrt(s / float64(len(members)))
	}
	for k := 0; k < 2; k++ {
		before := spread(ds.Points, gt.Labels, k)
		after := spread(rot.Points, gt.Labels, k)
		if after > 3*before+0.5 {
			t.Errorf("cluster %d spread exploded: %g -> %g", k, before, after)
		}
	}
}

func TestCatalogueConfigsAllResolve(t *testing.T) {
	for _, name := range CatalogueNames() {
		cfg, err := CatalogueConfig(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if cfg.Dims < 2 || cfg.Points < cfg.Clusters || cfg.Clusters < 1 {
			t.Errorf("%s: implausible config %+v", name, cfg)
		}
	}
	if _, err := CatalogueConfig("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := CatalogueConfig("9z"); err == nil {
		t.Error("malformed dataset name accepted")
	}
}

func TestCatalogueKnownParameters(t *testing.T) {
	cases := map[string]struct{ d, n, k int }{
		"14d":   {14, 90000, 17},
		"6d":    {6, 12000, 2},
		"18d":   {18, 120000, 17},
		"250k":  {14, 250000, 17},
		"25c":   {14, 90000, 25},
		"30d_s": {30, 90000, 17},
	}
	for name, want := range cases {
		cfg, err := CatalogueConfig(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cfg.Dims != want.d || cfg.Points != want.n || cfg.Clusters != want.k {
			t.Errorf("%s: got (d=%d, n=%d, k=%d), want (%d, %d, %d)",
				name, cfg.Dims, cfg.Points, cfg.Clusters, want.d, want.n, want.k)
		}
	}
	r, err := CatalogueConfig("14d_r")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rotations != 4 {
		t.Errorf("14d_r rotations = %d, want 4", r.Rotations)
	}
	o, err := CatalogueConfig("25o")
	if err != nil {
		t.Fatal(err)
	}
	if o.NoiseFrac != 0.25 {
		t.Errorf("25o noise = %g, want 0.25", o.NoiseFrac)
	}
}

func TestScale(t *testing.T) {
	cfg, _ := CatalogueConfig("14d")
	small := cfg.Scale(0.1)
	if small.Points != 9000 {
		t.Errorf("scaled points = %d, want 9000", small.Points)
	}
	tiny := cfg.Scale(0.0001)
	if tiny.Points < 50*cfg.Clusters {
		t.Errorf("scaled points = %d below per-cluster floor", tiny.Points)
	}
}

func TestKDDSurrogate(t *testing.T) {
	ds, gt, err := KDDCup2008Surrogate(LeftMLO, KDDConfig{ROIs: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 3000 || ds.Dims != 25 {
		t.Fatalf("shape d=%d n=%d", ds.Dims, ds.Len())
	}
	if !ds.IsNormalized() {
		t.Error("surrogate not normalized")
	}
	malignant := 0
	for _, l := range gt.Labels {
		switch l {
		case 0:
		case 1:
			malignant++
		default:
			t.Fatalf("unexpected label %d", l)
		}
	}
	frac := float64(malignant) / 3000
	if frac < 0.002 || frac > 0.05 {
		t.Errorf("malignant fraction %g outside the published skew", frac)
	}
	// Different views must differ, same view must reproduce.
	other, _, err := KDDCup2008Surrogate(RightCC, KDDConfig{ROIs: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	same, _, err := KDDCup2008Surrogate(LeftMLO, KDDConfig{ROIs: 3000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Points[0][0] != same.Points[0][0] {
		t.Error("same view+seed not reproducible")
	}
	if ds.Points[0][0] == other.Points[0][0] {
		t.Error("different views produced identical data")
	}
	if _, _, err := KDDCup2008Surrogate("sideways", KDDConfig{}); err == nil {
		t.Error("unknown view accepted")
	}
	if _, _, err := KDDCup2008Surrogate(LeftCC, KDDConfig{Features: 4}); err == nil {
		t.Error("too-few features accepted")
	}
}

func TestRandomSizesSumAndPositivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		total := 100 + rng.Intn(10000)
		k := 1 + rng.Intn(20)
		sizes := randomSizes(rng, total, k)
		sum := 0
		for _, s := range sizes {
			if s < 1 {
				return false
			}
			sum += s
		}
		return sum == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestGeneratedRowsContiguous pins two fixed-seed sets — one rotated
// Generate set and one KDD surrogate view — by a hash of their values,
// labels and relevant axes, and checks that their rows sit next to each
// other in one backing array, each with capacity d, in the order the
// generator returns them.
func TestGeneratedRowsContiguous(t *testing.T) {
	rotated, rgt, err := Generate(Config{Dims: 6, Points: 3000, Clusters: 3, NoiseFrac: 0.15,
		MinClusterDim: 3, MaxClusterDim: 5, Rotations: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	kdd, kgt, err := KDDCup2008Surrogate(LeftMLO, KDDConfig{ROIs: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
		gt   *GroundTruth
		want uint64
	}{
		{"rotated", rotated, rgt, 0x18fae62711559dd4},
		{"kdd", kdd, kgt, 0x27192b94480aab58},
	} {
		h := fnv.New64a()
		var buf [8]byte
		word := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for i, p := range c.ds.Points {
			for _, v := range p {
				word(math.Float64bits(v))
			}
			word(uint64(c.gt.Labels[i]))
		}
		for _, rel := range c.gt.Relevant {
			for _, r := range rel {
				if r {
					word(1)
				} else {
					word(0)
				}
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: hash %#x, want %#x", c.name, got, c.want)
		}
		d := c.ds.Dims
		for i, p := range c.ds.Points {
			if cap(p) != d {
				t.Fatalf("%s: row %d has capacity %d, want %d", c.name, i, cap(p), d)
			}
			if i > 0 && unsafe.Pointer(&p[0]) != unsafe.Add(unsafe.Pointer(&c.ds.Points[i-1][0]), d*8) {
				t.Fatalf("%s: row %d does not follow row %d in memory", c.name, i, i-1)
			}
		}
	}
}
