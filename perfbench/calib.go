package main

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The host's speed drifts: on a shared machine, neighbours on the same
// cores and memory slow every instruction, and the same operation costs
// up to a quarter more CPU time minutes later. The benchmark therefore
// times a fixed calibration kernel beside the measured work and reports
// the work's cost scaled by how fast the kernel ran in the same run: a
// figure in the seconds of a host running one round in exactly
// calibNominal. The kernel is the benchmark's own code, so a change to
// the program under test cannot move it.

// calibNominal is the CPU time of one calibration round on the reference
// host, about what it took on the 2-vCPU VM the benchmark was developed
// on; normalized figures are in that host's seconds.
const calibNominal = 0.15

// A round is about half compute on cache-resident data (parsing,
// sorting) and half dependent loads from a table far larger than the
// caches. A busy host slows the two kinds of work by different amounts
// at different times: the program's passes, which walk trees of a
// hundred megabytes, slowed about twice as much as a round whose table
// fitted mostly in the shared cache, and batch operations, mostly
// parsing and building, slowed about four times as much as a round of
// cache misses alone.
const (
	calibFloats = 150000  // decimal numbers parsed per round and goroutine
	calibSlots  = 1 << 23 // 64 MB of uint64
	calibProbes = 200000  // dependent scattered loads per round and goroutine
	calibSort   = 150000  // float64s sorted per round and goroutine
)

var calibState struct {
	once  sync.Once
	text  [][]byte
	mem   []uint64
	mu    sync.Mutex
	sink  uint64
	spent float64
}

func calibInit() {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < calibFloats; i++ {
		calibState.text = append(calibState.text, strconv.AppendFloat(nil, rng.Float64(), 'g', -1, 64))
	}
	calibState.mem = make([]uint64, calibSlots)
	for i := range calibState.mem {
		calibState.mem[i] = rng.Uint64()
	}
}

// calibKernel is one goroutine's share of a round: parse decimal text,
// chase dependent addresses through a working set larger than the
// caches, and sort — the kinds of work CSV loading, tree walks and the
// β-search do.
func calibKernel(seed uint64) uint64 {
	var acc uint64
	vals := make([]float64, 0, calibSort)
	for _, b := range calibState.text {
		v, err := strconv.ParseFloat(string(b), 64)
		if err == nil {
			acc += math.Float64bits(v)
			vals = append(vals, v)
		}
	}
	mem := calibState.mem
	x := seed | 1
	for i := 0; i < calibProbes; i++ {
		j := (x ^ acc) & (calibSlots - 1)
		x = x*6364136223846793005 + mem[j]
		acc += x >> 7
	}
	for len(vals) < calibSort {
		x = x*6364136223846793005 + 1442695040888963407
		vals = append(vals, float64(x>>11))
	}
	sort.Float64s(vals)
	return acc + math.Float64bits(vals[len(vals)/2])
}

// calibrate runs one round, the kernel on two goroutines at once (so both
// cores of a two-core machine are sampled), and returns the CPU time of
// the two threads that ran it: nothing else the process does counts.
func calibrate() float64 {
	calibState.once.Do(calibInit)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			start := threadCPUSeconds()
			v := calibKernel(seed)
			spent := threadCPUSeconds() - start
			calibState.mu.Lock()
			calibState.sink += v
			calibState.spent += spent
			calibState.mu.Unlock()
		}(uint64(g + 1))
	}
	wg.Wait()
	calibState.mu.Lock()
	defer calibState.mu.Unlock()
	spent := calibState.spent
	calibState.spent = 0
	return spent
}

// threadCPUSeconds is the CPU time of the calling OS thread (NaN if
// getrusage fails).
func threadCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// calibration collects a run's calibration rounds.
type calibration []float64

func (c *calibration) round() { *c = append(*c, calibrate()) }

// rounds runs n rounds.
func (c *calibration) rounds(n int) {
	for i := 0; i < n; i++ {
		c.round()
	}
}

// normalize turns CPU seconds spent during the run into seconds of the
// reference host: it scales them by calibNominal over the run's median
// round.
func (c calibration) normalize(secs float64) float64 {
	return secs * calibNominal / median(c)
}
