package main

import (
	"math"
	"sort"
	"time"
)

// The host this benchmark was sized on is shared, and its speed drifts by
// 20–40 % over minutes as other tenants load the cores and caches it
// shares: identical repetitions of one workload took 5 s in one run and
// 8.6 s in another. Host metrics are therefore normalized by calibration
// kernels timed between repetitions. A kernel is fixed work that allocates
// nothing per element, so neither the program's heap nor a change to the
// program can move its time much. How much a tenant slows a workload depends on
// what the workload stresses, so each workload is normalized by the
// kernels that tracked its own repetitions best on that host (see
// bench.kernels): train-lro, whose host time is core's walks over small
// trees and slices, by a cache-resident pointer walk and a sort; the
// serving workloads, whose host time is Go map operations in the scheduler
// and KV managers, by map churn and a sort.
//
// A host's slowdown is the geometric mean of its kernels' times over their
// reference times, which are about what each took on that 2-core x86-64
// host when it was quiet. A host time t measured at slowdown s is reported
// as t / s, the time on the reference host.

// kernel is one calibration kernel and its time on the reference host.
type kernel struct {
	run func()
	ref time.Duration
}

var (
	// kernelWalk is a dependent walk of 2^21 steps over a single-cycle
	// permutation of 256 KiB, about the size of a core's L2 cache.
	kernelWalk = kernel{walkKernel, 12 * time.Millisecond}
	// kernelSort sorts a fixed pseudo-random slice of 2^16 integers.
	kernelSort = kernel{sortKernel, 11 * time.Millisecond}
	// kernelMap inserts and then deletes 2^15 keys in a pre-sized map,
	// eight times over. The deletions' tombstones make the map regrow its
	// table now and then, about 1 MiB in a run.
	kernelMap = kernel{mapKernel, 18 * time.Millisecond}
)

const (
	walkSize   = 1 << 16 // permutation entries: 256 KiB
	walkSteps  = 1 << 21
	sortSize   = 1 << 16
	mapKeys    = 1 << 15
	mapPasses  = 8
	kernelRuns = 2 // a kernel's time is the fastest of this many runs
)

// walkPerm is one cycle through all entries (Sattolo's shuffle, so no walk
// gets trapped in a short cycle), built once from a fixed seed before
// anything is timed.
var walkPerm = func() []uint32 {
	p := make([]uint32, walkSize)
	for i := range p {
		p[i] = uint32(i)
	}
	rng := uint64(7)
	for i := len(p) - 1; i > 0; i-- {
		rng = rng*6364136223846793005 + 1442695040888963407
		j := int((rng >> 33) % uint64(i))
		p[i], p[j] = p[j], p[i]
	}
	return p
}()

// sortInput holds the fixed pseudo-random keys of the sort and map
// kernels (xorshift64).
var sortInput = func() []uint64 {
	s := make([]uint64, sortSize)
	x := uint64(88172645463325252)
	for i := range s {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s[i] = x
	}
	return s
}()

var (
	sortBuf    = make([]uint64, sortSize)
	kernelMapM = make(map[uint64]uint64, mapKeys)
	kernelSink uint64
)

func walkKernel() {
	x := uint32(0)
	for i := 0; i < walkSteps; i++ {
		x = walkPerm[x]
	}
	kernelSink += uint64(x)
}

func sortKernel() {
	copy(sortBuf, sortInput)
	sort.Slice(sortBuf, func(i, j int) bool { return sortBuf[i] < sortBuf[j] })
	kernelSink += sortBuf[sortSize/2]
}

func mapKernel() {
	for p := 0; p < mapPasses; p++ {
		for i, k := range sortInput[:mapKeys] {
			kernelMapM[k] = uint64(i)
		}
		for _, k := range sortInput[:mapKeys] {
			delete(kernelMapM, k)
		}
	}
}

// calibrate times each kernel kernelRuns times, keeps the fastest run of
// each, and returns the host's slowdown against the reference host.
func calibrate(ks []kernel) float64 {
	logSum := 0.0
	for _, k := range ks {
		best := time.Duration(math.MaxInt64)
		for r := 0; r < kernelRuns; r++ {
			start := hostNow()
			k.run()
			best = min(best, hostSince(start))
		}
		logSum += math.Log(float64(best) / float64(k.ref))
	}
	return math.Exp(logSum / float64(len(ks)))
}

// referenceSeconds estimates the host seconds of one repetition on the
// reference host. Each repetition's times are divided by its slowdown
// (the mean of the calibrations just before and just after it); then the
// median is taken per training step, or per whole repetition where a
// repetition is one call, and the medians are summed. A burst of
// interference slows a few consecutive steps of one repetition, and the
// per-step median drops them where a per-repetition median would not.
func referenceSeconds(reps []repOut) float64 {
	segs := func(o repOut) []time.Duration {
		if len(o.itemHost) > 0 {
			return o.itemHost
		}
		return []time.Duration{o.host}
	}
	total := 0.0
	for i := range segs(reps[0]) {
		xs := make([]float64, len(reps))
		for r, o := range reps {
			xs[r] = segs(o)[i].Seconds() / o.slowdown
		}
		total += median(xs)
	}
	return total
}
