package main

import (
	"fmt"

	"repro/internal/caching"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/gpu"
	"repro/internal/memalloc"
	"repro/internal/serve"
	"repro/internal/sim"
)

// hooks let the traced run and the gate tests interpose on the program's
// interfaces without touching program code. A nil hook leaves the layer
// as the program built it.
type hooks struct {
	t     *tracer // nil = untraced
	alloc func(memalloc.Allocator) memalloc.Allocator
	kv    func(serve.CacheManager) serve.CacheManager
	// exact keeps every latency sample of a serving repetition exact, so
	// its percentiles resolve per seed instead of to a sketch bucket. Only
	// the repetition that supplies the end-to-end simulated metrics sets
	// it; timed and traced repetitions run the program's default digests.
	exact bool
	// mem, when set, is called once at the repetition's memory peak (see
	// liveHeapMiB). Where that peak lies inside the timed section
	// (serving), the repetition reports probed and its host time is not
	// used.
	mem func()
}

// rig is one simulated device, driver and allocator. raw is the allocator
// as built; alloc is what the program is handed (raw behind any hooks).
type rig struct {
	clock  *sim.Clock
	driver *cuda.Driver
	raw    memalloc.Allocator
	alloc  memalloc.Allocator
}

const (
	backendGMLake  = "gmlake"
	backendCaching = "caching"
)

func newRig(capacity int64, backend string, h hooks) *rig {
	clock := sim.NewClock()
	drv := cuda.NewDriver(gpu.NewDevice("sim-a100", capacity), clock, sim.DefaultCostModel())
	r := &rig{clock: clock, driver: drv}
	l := layerCaching
	if backend == backendGMLake {
		r.raw = core.NewDefault(drv)
		l = layerCore
	} else {
		r.raw = caching.New(drv)
	}
	r.alloc = r.raw
	if h.t != nil {
		r.alloc = &tracedAlloc{Allocator: r.alloc, t: h.t, l: l}
	}
	if h.alloc != nil {
		r.alloc = h.alloc(r.alloc)
	}
	return r
}

// checkDrained is the teardown gate: once the program released everything
// it allocated, the allocator holds no active bytes, and its structural
// invariants hold.
func (r *rig) checkDrained(what string) error {
	if st := r.raw.Stats(); st.Active != 0 {
		return gateErr("allocator-drained", "%s: %s allocator still has %d active bytes after teardown", what, r.raw.Name(), st.Active)
	}
	return r.checkInvariants(what)
}

func (r *rig) checkInvariants(what string) error {
	var err error
	switch a := r.raw.(type) {
	case *core.Allocator:
		err = a.CheckInvariants()
	case *caching.Allocator:
		err = a.CheckInvariants()
	}
	if err != nil {
		return gateErr("invariants", "%s: %v", what, err)
	}
	return nil
}

// coreCounts adds a GMLake allocator's path and pool counters to v.
func (r *rig) coreCounts(v vals) {
	g, ok := r.raw.(*core.Allocator)
	if !ok {
		return
	}
	s1, s2, s3, s4 := g.StrategyCounts()
	v["core.s1_exact"] += float64(s1)
	v["core.s2_split"] += float64(s2)
	v["core.s3_stitch"] += float64(s3)
	v["core.s4_new"] += float64(s4)
	v["core.sblocks"] += float64(g.SBlockCount())
	v["core.pblocks"] += float64(g.PBlockCount())
	v["core.stitch_frees"] += float64(g.StitchFreeCount())
	v["core.gc_runs"] += float64(g.GCRuns())
	if paths := v["core.s1_exact"] + v["core.s2_split"] + v["core.s3_stitch"] + v["core.s4_new"]; paths > 0 {
		v["core.exact_ratio"] = v["core.s1_exact"] / paths
	}
}

// cudaCounts adds the driver's call counts to v and returns their total.
func (r *rig) cudaCounts(v vals) int64 {
	c := r.driver.Counters()
	v["cuda.malloc"] += float64(c.Malloc)
	v["cuda.free"] += float64(c.Free)
	v["cuda.address_reserve"] += float64(c.AddressReserve)
	v["cuda.address_free"] += float64(c.AddressFree)
	v["cuda.mem_create"] += float64(c.MemCreate)
	v["cuda.mem_release"] += float64(c.MemRelease)
	v["cuda.mem_map"] += float64(c.MemMap)
	v["cuda.mem_unmap"] += float64(c.MemUnmap)
	return c.Malloc + c.Free + c.AddressReserve + c.AddressFree +
		c.MemCreate + c.MemRelease + c.MemMap + c.MemUnmap + c.MemSet
}

// gateError is a failed correctness gate. A run that fails one reports
// the gate and reason, never a number.
type gateError struct {
	gate, reason string
}

func (e *gateError) Error() string { return "gate " + e.gate + ": " + e.reason }

func gateErr(gate, format string, args ...any) error {
	return &gateError{gate: gate, reason: fmt.Sprintf(format, args...)}
}

// vals holds metric values by name.
type vals map[string]float64

const gib = float64(sim.GiB)
