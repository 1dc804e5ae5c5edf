package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// bench is one workload on the inputs of one seed, as the runner drives
// it. setup builds the inputs and returns the host time users pay for that;
// rep runs the fixed unit of work once on them, from cold.
type bench interface {
	name() string
	inputs() map[string]int
	setup(h hooks) (time.Duration, error)
	rep(h hooks) (repOut, error)
	// kernels are the calibration kernels its host times are normalized
	// by (see calibrate.go).
	kernels() []kernel
}

// repOut is one repetition's outcome.
type repOut struct {
	items    int             // training steps or requests offered
	failed   int             // OOM'd steps; requests lost or shed
	host     time.Duration   // host time of the measured section
	itemHost []time.Duration // host time of each training step
	v        vals            // simulated metrics and exact counts
	// probed is set when the memory probe ran inside host, which then
	// measures the probe too and is left out of every host metric.
	probed bool
	// slowdown is the host's slowdown while the repetition ran: the mean
	// of the calibrations just before and just after it.
	slowdown float64
}

// simKeys returns the sorted names of a rep's deterministic values.
func (o repOut) simKeys() []string {
	keys := make([]string, 0, len(o.v))
	for k := range o.v {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// checkSameSim is the determinism gate: every repetition of one seed must
// reproduce the first one's simulated metrics and counts exactly, traced
// or not.
func checkSameSim(first, o repOut) error {
	fk, ok := first.simKeys(), o.simKeys()
	if len(fk) != len(ok) {
		return gateErr("determinism", "repetitions report %d vs %d simulated values", len(fk), len(ok))
	}
	for i, k := range fk {
		if ok[i] != k {
			return gateErr("determinism", "repetitions report different simulated values (%s vs %s)", k, ok[i])
		}
		a, b := first.v[k], o.v[k]
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			return gateErr("determinism", "%s = %v in one repetition, %v in another", k, a, b)
		}
	}
	return nil
}

// options are one run's settings.
type options struct {
	seconds   float64
	traceFile string // Chrome trace output of a traced run ("" = none)
}

// Setups are timed between repetitions, spread over the whole run rather
// than bunched at its start: one before the first repetition, then more
// whenever they have taken less than setupShare of the repetitions' host
// time, at most setupsPerRep at a time and maxSetups in all.
const (
	setupShare   = 0.1
	setupsPerRep = 40
	maxSetups    = 200
)

// record is everything one run measured, printed as a JSON line before the
// result line; compare mode reads these.
type record struct {
	Kind     string         `json:"kind"`
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Trace    bool           `json:"trace"`
	Env      environment    `json:"env"`
	Inputs   map[string]int `json:"inputs"`
	Reps     int            `json:"reps"`
	Setups   int            `json:"setups"`
	// RepHostS is each timed repetition's raw host seconds, Slowdown each
	// calibration's host slowdown (see calibrate.go).
	RepHostS  []float64              `json:"rep_host_s"`
	Slowdown  []float64              `json:"slowdown"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Error     string                 `json:"error,omitempty"`
}

const recordKind = "gmbench-run"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type environment struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() environment {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			commit += "-dirty"
		}
	}
	return environment{GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), Commit: commit}
}

// fill renders the declared metrics from v; a declared metric missing from
// v is a benchmark bug and fails the run.
func fill(defs []metricDef, v vals) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	return out, nil
}

// measure runs repetitions until opts.seconds of host time have passed
// (at least one timed repetition), checking that each reproduces the first
// exactly. It calibrates before the first repetition and after each one,
// appending the slowdowns to slows and giving each repetition the mean of
// the two around it. With setups non-nil it also times setups between
// repetitions (see setupShare) and appends their host times; with mem
// non-nil it stores the first repetition's live heap at its memory peak
// there.
func measure(b bench, opts options, slows *[]float64, setups *[]time.Duration, mem *float64) ([]repOut, error) {
	var reps []repOut
	var setupTime, repTime time.Duration
	before := calibrate(b.kernels())
	*slows = append(*slows, before)
	start := hostNow()
	for len(timedReps(reps)) == 0 || hostSince(start).Seconds() < opts.seconds {
		if setups != nil {
			// Time setups from a collected heap, not amid the previous
			// repetition's garbage.
			runtime.GC()
		}
		for n := 0; setups != nil && n < setupsPerRep && len(*setups) < maxSetups &&
			(len(*setups) == 0 || float64(setupTime) < setupShare*float64(repTime)); n++ {
			d, err := b.setup(hooks{})
			if err != nil {
				return reps, err
			}
			setupTime += d
			*setups = append(*setups, d)
		}
		var h hooks
		fired := false
		if len(reps) == 0 && mem != nil {
			h.mem = func() { *mem, fired = liveHeapMiB(), true }
		}
		o, err := b.rep(h)
		if err != nil {
			return reps, err
		}
		if h.mem != nil && !fired {
			return reps, gateErr("memory-probe", "%s: the repetition never reached its memory peak", b.name())
		}
		after := calibrate(b.kernels())
		*slows = append(*slows, after)
		o.slowdown = (before + after) / 2
		before = after
		if !o.probed {
			repTime += o.host
		}
		if len(reps) > 0 {
			if err := checkSameSim(reps[0], o); err != nil {
				return reps, err
			}
		}
		reps = append(reps, o)
	}
	return reps, nil
}

// timedReps returns the repetitions whose host time is a measurement.
func timedReps(reps []repOut) []repOut {
	var out []repOut
	for _, o := range reps {
		if !o.probed {
			out = append(out, o)
		}
	}
	return out
}

func tally(rec *record, reps []repOut) {
	for _, o := range reps {
		rec.Attempted += o.items
		rec.Failed += o.failed
	}
}

// runEndToEnd is an untraced run. The simulated metrics come from one
// repetition on the run's own seed, with exact latency digests. Host
// metrics come from repetitions for opts.seconds, with setups timed
// between them, on the canonical inputs timed (see canonicalSeed),
// normalized for host speed (see calibrate).
func runEndToEnd(own, timed bench, rec *record, opts options) error {
	_, err := own.setup(hooks{})
	rec.Inputs = own.inputs()
	if err != nil {
		return err
	}
	rec.Inputs["host_timing_seed"] = canonicalSeed
	sim, err := own.rep(hooks{exact: true})
	tally(rec, []repOut{sim})
	if err != nil {
		return err
	}
	// own is dead from here on, so its inputs are not in host_mem_mib.
	runtime.GC()
	var slows []float64
	var setups []time.Duration
	var peakLive float64
	reps, err := measure(timed, opts, &slows, &setups, &peakLive)
	tally(rec, reps)
	rec.Reps, rec.Setups = len(reps), len(setups)
	if err != nil {
		return err
	}

	v := vals{}
	for _, k := range []string{"peak_reserved_gib", "utilization_pct", "latency_ms_tail", "sim_makespan_s"} {
		v[k] = sim.v[k]
	}
	timedOnly := timedReps(reps)
	for _, o := range timedOnly {
		rec.RepHostS = append(rec.RepHostS, o.host.Seconds())
	}
	rec.Slowdown = slows
	v["setup_s"] = medianDuration(setups).Seconds() / median(slows)
	v["items_per_s"] = float64(timedOnly[0].items) / referenceSeconds(timedOnly)
	v["host_mem_mib"] = peakLive
	rec.Metrics, err = fill(endToEnd, v)
	return err
}

// runTraced reports the per-layer metrics. Host metrics come from the
// canonical inputs timed, as in an untraced run: untraced repetitions for
// opts.seconds (the baseline of the tracing overhead), then one setup and
// one repetition under the tracer. Counts come from one traced repetition
// of the run's own seed.
func runTraced(own, timed bench, rec *record, opts options) error {
	_, err := own.setup(hooks{})
	rec.Inputs = own.inputs()
	if err != nil {
		return err
	}
	rec.Inputs["host_timing_seed"] = canonicalSeed
	ownT := newTracer()
	ownT.begin(layerBench, "run")
	counts, err := own.rep(hooks{t: ownT})
	ownWall, _ := ownT.end()
	tally(rec, []repOut{counts})
	if err != nil {
		return err
	}
	layerMetrics(counts.v, ownT, ownWall)
	counts.v["servegen.requests"] = float64(rec.Inputs["requests"])
	counts.v["servegen.sessions"] = float64(rec.Inputs["sessions"])

	if _, err := timed.setup(hooks{}); err != nil {
		return err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var slows []float64
	reps, err := measure(timed, opts, &slows, nil, nil)
	runtime.ReadMemStats(&after)
	tally(rec, reps)
	rec.Reps = len(reps)
	if err != nil {
		return err
	}

	start := hostNow()
	t := newTracer()
	t.begin(layerBench, "run")
	var traced repOut
	_, err = timed.setup(hooks{t: t})
	if err == nil {
		traced, err = timed.rep(hooks{t: t})
	}
	wall, _ := t.end()
	outer := hostSince(start)
	tally(rec, []repOut{traced})
	if err != nil {
		return err
	}
	if err := checkSameSim(reps[0], traced); err != nil {
		return err
	}
	if err := checkAttribution(t, outer); err != nil {
		return err
	}

	v := traced.v
	untraced := make([]float64, len(reps))
	var stepHost []time.Duration
	for i, o := range reps {
		untraced[i] = o.host.Seconds()
		stepHost = append(stepHost, o.itemHost...)
	}
	v["bench.host_slowdown"] = median(slows)
	layerMetrics(v, t, wall)
	v["workload.step_ms_p50"] = ms(nearestRank(stepHost, 50))
	v["workload.step_ms_p95"] = ms(nearestRank(stepHost, 95))
	v["workload.step_self_ms_p50"] = ms(nearestRank(t.stepSelf, 50))
	v["trace.wall_s"] = wall.Seconds()
	v["trace.untraced_wall_s"] = median(untraced)
	v["trace.overhead_s"] = traced.host.Seconds() - median(untraced)
	v["trace.attributed_share"] = attributedShare(t, outer)
	v["trace.clock_read_ns"] = clockReadNs()
	n := float64(len(reps))
	v["go.alloc_mib"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / n
	v["go.mallocs"] = float64(after.Mallocs-before.Mallocs) / n
	v["go.gc_cycles"] = float64(after.NumGC-before.NumGC) / n
	v["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6 / n
	v["go.heap_sys_mib"] = float64(after.HeapSys) / (1 << 20)
	for _, d := range perLayer {
		if d.sim {
			v[d.name] = counts.v[d.name] // zero for a layer this workload bypasses
		}
	}
	rec.Metrics, err = fill(perLayer, v)
	if err != nil {
		return err
	}
	if opts.traceFile != "" {
		return t.writeChrome(opts.traceFile)
	}
	return nil
}

// maxUnattributed bounds the share of the traced wall time that no layer's
// wrapper covers and falls to bench (rig assembly, gates, teardown). More
// means a layer's calls went untimed.
const maxUnattributed = 0.1

// checkAttribution is the tracing gate. The tracer's frames partition its
// root span by construction, so it checks what the tracer cannot arrange:
// every wrapper closed its frame, the layers' self times add up to an
// independent host-clock reading around the traced section (outer), and
// the time no wrapper covers stays below maxUnattributed of it.
func checkAttribution(t *tracer, outer time.Duration) error {
	if len(t.stack) != 0 {
		return gateErr("attribution", "%d tracer frames left open", len(t.stack))
	}
	if sum := t.selfSum(); sum > outer || outer-sum > outer/100 {
		return gateErr("attribution", "layer self times sum to %v, the traced section took %v", sum, outer)
	}
	if share := 1 - attributedShare(t, outer); share > maxUnattributed {
		return gateErr("attribution", "%.1f %% of the traced section is in no layer's calls", 100*share)
	}
	return nil
}

// attributedShare is the share of outer that the layers' wrappers cover.
func attributedShare(t *tracer, outer time.Duration) float64 {
	return (t.selfSum() - t.self[layerBench]).Seconds() / outer.Seconds()
}

// layerMetrics derives the per-layer host-time metrics from the tracer.
func layerMetrics(v vals, t *tracer, wall time.Duration) {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, l := range []layer{layerCore, layerCaching} {
		p := layerNames[l]
		a, f := &t.ops[l][opAlloc].hist, &t.ops[l][opFree].hist
		v[p+".alloc_us_p50"] = us(a.quantile(50))
		v[p+".alloc_us_p99"] = us(a.quantile(99))
		v[p+".free_us_p50"] = us(f.quantile(50))
		v[p+".free_us_p99"] = us(f.quantile(99))
		v[p+".busy_share"] = t.busy[l].Seconds() / wall.Seconds()
	}
	kv := &t.ops[layerKV]
	v["serve.kv.admit_us_p50"] = us(kv[opAdmit].hist.quantile(50))
	v["serve.kv.append_us_p50"] = us(kv[opAppend].hist.quantile(50))
	v["serve.kv.release_us_p50"] = us(kv[opRelease].hist.quantile(50))
	v["serve.kv.busy_share"] = t.busy[layerKV].Seconds() / wall.Seconds()
	v["serve.kv.admits"] = float64(kv[opAdmit].hist.n)
	v["serve.kv.appends"] = float64(kv[opAppend].hist.n)
	v["serve.kv.admit_fail_ratio"] = 0
	if n := kv[opAdmit].hist.n; n > 0 {
		v["serve.kv.admit_fail_ratio"] = float64(kv[opAdmit].fails) / float64(n)
	}
	for l := layer(0); l < numLayers; l++ {
		v[layerNames[l]+".self_s"] = t.self[l].Seconds()
	}
	v["serve.self_share"] = t.self[layerServe].Seconds() / wall.Seconds()
	v["serve.self_ns_per_step"] = 0
	if steps := v["serve.steps"]; steps > 0 {
		v["serve.self_ns_per_step"] = float64(t.self[layerServe]) / steps
	}
	var gen time.Duration
	for _, s := range t.spans {
		if s.layer == layerServegen {
			gen += s.end - s.start
		}
	}
	v["servegen.generate_s"] = gen.Seconds()
}

// liveHeapMiB collects garbage and returns the live Go heap in MiB. Called
// at a repetition's memory peak it measures what the simulator needs; the
// heap's high-water mark (HeapSys) also counts garbage awaiting collection
// and moves by tens of percent with GC timing between identical runs.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// clockReadNs measures the cost of one host clock read, the unit the
// tracing overhead is made of.
func clockReadNs() float64 {
	const n = 100000
	start := hostNow()
	for i := 0; i < n; i++ {
		hostNow()
	}
	return float64(hostSince(start)) / n
}
