package main

import (
	"math"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mrcc/internal/ctree"
	"mrcc/internal/synthetic"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it, so every reported figure is a value that was actually observed.
// It returns NaN for an empty sample. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// errorRate is failed operations over attempted ones; zero attempts
// read as a total failure, since a run that attempted nothing measured
// nothing.
func errorRate(failed, attempted int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMB is the process's peak resident set size in MB (getrusage
// reports KB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// cpuSeconds is the CPU time, user plus system, the process has used so
// far (NaN if getrusage fails). On a virtual machine whose kernel
// accounts steal time, it leaves out the time the host ran other
// machines on this one's CPUs, which swings wall-clock figures of
// identical runs by up to a factor of two on a shared host.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuTicks reads the machine-wide steal and total tick counts from the
// first line of /proc/stat (ok is false where there is none).
func cpuTicks() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9 and 10) are already in user
		// and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealMeter measures the share of the machine's CPU time the host
// stole between its start and a call to share.
type stealMeter struct {
	steal, total uint64
	ok           bool
}

func startSteal() stealMeter {
	s, t, ok := cpuTicks()
	return stealMeter{steal: s, total: t, ok: ok}
}

// share returns the stolen share of all CPU ticks since start, or -1
// when the kernel does not report it.
func (m stealMeter) share() float64 {
	s, t, ok := cpuTicks()
	if !m.ok || !ok || t <= m.total {
		return -1
	}
	return float64(s-m.steal) / float64(t-m.total)
}

// metric is one reported figure with its unit and, for percentiles and
// medians, the number of samples it was taken from (0 = not a sample
// statistic).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"-"`
}

// metrics collects a run's figures by name.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// setSample stores a percentile of a sample together with its count.
func (m metrics) setSample(name string, xs []float64, p float64, unit string) {
	m[name] = metric{Value: percentile(xs, p), Unit: unit, N: len(xs)}
}

// layerMetrics sets every per-layer timing that comes straight from a
// span name: the median span duration, with its sample count.
func layerMetrics(m metrics, tr *tracer) {
	for _, l := range []struct{ metric, span string }{
		{"dataset.parse_ms", "dataset.parse"},
		{"dataset.normalize_ms", "dataset.normalize"},
		{"ctree.build_ms", "ctree.build"},
		{"ctree.index_ms", "ctree.index"},
		{"core.run_on_tree_ms", "core.run_on_tree"},
		{"ctree.insert_batch_ms", "ctree.insert_batch"},
		{"ctree.clone_ms", "ctree.clone"},
		{"ctree.merge_ms", "ctree.merge"},
		{"core.run_tree_ms", "core.run_tree"},
		{"serve.pass_ms", "serve.pass"},
		{"treeio.load_ms", "treeio.load"},
		{"treeio.save_ms", "treeio.save"},
		{"wal.replay_ms", "wal.replay"},
	} {
		m.setSample(l.metric, tr.durations(l.span), 50, "ms")
	}
	appends := tr.durations("wal.append")
	m.setSample("wal.append_ms_p50", appends, 50, "ms")
	m.setSample("wal.append_ms_p90", appends, 90, "ms")
}

// treeShape sets the cell count and footprint (arena plus level
// indexes) of a tree whose indexes are built.
func treeShape(m metrics, t *ctree.Tree) {
	m.set("ctree.cells", float64(t.CellCount()), "count")
	m.set("ctree.tree_mb", float64(t.MemoryBytes()+t.IndexMemoryBytes())/(1<<20), "MB")
}

// reorder applies a run's seed to a fixed generated dataset: it
// shuffles the rows within each consecutive block of block rows, ground
// truth following. Each seed gets different inputs with the same
// clusters, so the work a run measures does not swing with how many
// clusters a seed happened to draw. The axes keep their order: permuting
// them moved a re-cluster pass's cost by a third between seeds.
func reorder(rng *rand.Rand, pts [][]float64, gt *synthetic.GroundTruth, block int) {
	for lo := 0; lo < len(pts); lo += block {
		hi := min(lo+block, len(pts))
		rng.Shuffle(hi-lo, func(i, j int) {
			i, j = lo+i, lo+j
			pts[i], pts[j] = pts[j], pts[i]
			gt.Labels[i], gt.Labels[j] = gt.Labels[j], gt.Labels[i]
		})
	}
}
