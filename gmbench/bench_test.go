package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/memalloc"
	"repro/internal/serve"
)

// TestQuickRunsReportEveryMetric runs every workload on tiny inputs, once
// untraced and once traced, and checks that each declared metric appears
// with its unit and that the result line is the last line printed.
func TestQuickRunsReportEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			opts := options{traceFile: filepath.Join(t.TempDir(), "trace.json")}
			rec, err := run(wl.name, 5, true, traced, opts)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				mv, ok := rec.Metrics[d.name]
				if !ok || mv.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", wl.name, traced, d.name, mv, d.unit)
				}
			}
			if rec.Attempted < 1 || rec.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", wl.name, traced, rec.Attempted, rec.Failed)
			}
			var out bytes.Buffer
			if err := emit(&out, rec); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatal(err)
			}
			if len(res) != 4 || string(res["correct"]) != "true" {
				t.Errorf("%s: result line %s", wl.name, lines[len(lines)-1])
			}
			if traced {
				if a := rec.Metrics["trace.attributed_share"].Value; a < 1-maxUnattributed || a > 1 {
					t.Errorf("%s: layers cover %v of the traced section", wl.name, a)
				}
				var events []traceEvent
				data, err := os.ReadFile(opts.traceFile)
				if err != nil || json.Unmarshal(data, &events) != nil || len(events) == 0 {
					t.Errorf("%s: Chrome trace unreadable (%v)", wl.name, err)
				}
			}
		}
	}
}

func wantGate(t *testing.T, err error, gate string) {
	t.Helper()
	var ge *gateError
	if !errors.As(err, &ge) || ge.gate != gate {
		t.Fatalf("got %v, want gate %q to fire", err, gate)
	}
}

// leakyAlloc drops the first Free it is handed: a one-buffer leak.
type leakyAlloc struct {
	memalloc.Allocator
	leaked bool
}

func (a *leakyAlloc) Free(b *memalloc.Buffer) {
	if !a.leaked {
		a.leaked = true
		return
	}
	a.Allocator.Free(b)
}

func TestGateLeakedBuffer(t *testing.T) {
	b := newTrainLRO(5, true)
	_, err := b.rep(hooks{alloc: func(a memalloc.Allocator) memalloc.Allocator { return &leakyAlloc{Allocator: a} }})
	wantGate(t, err, "allocator-drained")
}

// forgetfulKV loses the first Release: the server believes the sequence's
// KV is gone, the manager still holds it.
type forgetfulKV struct {
	serve.CacheManager
	dropped bool
}

func (k *forgetfulKV) Release(h serve.SeqHandle) {
	if !k.dropped {
		k.dropped = true
		return
	}
	k.CacheManager.Release(h)
}

func TestGateKVUnderReportsRelease(t *testing.T) {
	b := newServeFleet(5, true)
	if _, err := b.setup(hooks{}); err != nil {
		t.Fatal(err)
	}
	_, err := b.rep(hooks{kv: func(m serve.CacheManager) serve.CacheManager { return &forgetfulKV{CacheManager: m} }})
	wantGate(t, err, "kv-drained")
}

func TestGatePerturbedSimMetric(t *testing.T) {
	b := newServeSessions(5, true)
	if _, err := b.setup(hooks{}); err != nil {
		t.Fatal(err)
	}
	first, err := b.rep(hooks{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := b.rep(hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkSameSim(first, again); err != nil {
		t.Fatalf("two repetitions of one seed differ: %v", err)
	}
	again.v["peak_reserved_gib"] = math.Nextafter(again.v["peak_reserved_gib"], math.Inf(1))
	wantGate(t, checkSameSim(first, again), "determinism")

	// Compare mode flags the same perturbation across result sets.
	rec := func(x float64) record {
		return record{Kind: recordKind, Workload: "serve-sessions", Seed: 5,
			Metrics: map[string]metricValue{"peak_reserved_gib": {Value: x, Unit: "GiB"}}}
	}
	rows := compareRows([]record{rec(first.v["peak_reserved_gib"])}, []record{rec(again.v["peak_reserved_gib"])})
	if len(rows) != 1 || !strings.HasPrefix(rows[0].verdict, "changed") {
		t.Fatalf("compare rows %+v, want one changed verdict", rows)
	}
}

// TestGateAttribution shows the tracing gate firing on a frame a wrapper
// left open and on time that no layer's wrapper covers.
func TestGateAttribution(t *testing.T) {
	spin := func(d time.Duration) {
		for s := hostNow(); hostSince(s) < d; {
		}
	}
	start := hostNow()
	tr := newTracer()
	tr.begin(layerBench, "run")
	tr.enter(layerCore)
	spin(time.Millisecond)
	tr.leave(layerCore, opAlloc, nil)
	tr.end()
	if err := checkAttribution(tr, hostSince(start)); err != nil {
		t.Fatalf("balanced, fully attributed trace: %v", err)
	}

	start = hostNow()
	tr = newTracer()
	tr.begin(layerBench, "run")
	tr.enter(layerCore)
	spin(time.Millisecond)
	tr.end()
	wantGate(t, checkAttribution(tr, hostSince(start)), "attribution")

	start = hostNow()
	tr = newTracer()
	tr.begin(layerBench, "run")
	spin(time.Millisecond)
	tr.end()
	wantGate(t, checkAttribution(tr, hostSince(start)), "attribution")
}

// silentBench never reaches its memory peak: its rep ignores the probe.
type silentBench struct{ *trainLRO }

func (b silentBench) rep(hooks) (repOut, error) { return repOut{v: vals{}, items: 1}, nil }

func TestGateMemoryProbeNeverFired(t *testing.T) {
	var slows []float64
	var setups []time.Duration
	var mem float64
	_, err := measure(silentBench{newTrainLRO(5, true)}, options{}, &slows, &setups, &mem)
	wantGate(t, err, "memory-probe")
}

func TestFailedRunReportsNoNumbers(t *testing.T) {
	rec := record{Kind: recordKind, Error: "gate kv-drained: replica 0", Attempted: 1, Failed: 1, Metrics: map[string]metricValue{}}
	var out bytes.Buffer
	if err := emit(&out, rec); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if got := lines[len(lines)-1]; got != `{"correct":false,"attempted":1,"failed":1,"metrics":{}}` {
		t.Fatalf("result line %s", got)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json in step with the metric
// and workload lists the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why == "" {
			t.Errorf("workload %d: %+v, want %s with a reason", i, w, workloads[i].name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != bounded ||
				bounded && *m.Bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
}

func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{3.5, 1.25, 9, 2, 7, 7.5}, [3]float64{1.8125, 5.25, 7.875}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if [3]float64{q1, med, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
		}
		if m := median(c.xs); m != c.want[1] {
			t.Errorf("median(%v) = %v", c.xs, m)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for i := 1; i <= 1000; i++ {
		h.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct {
		pct  int
		want time.Duration
	}{{50, 500 * time.Microsecond}, {99, 990 * time.Microsecond}} {
		got := h.quantile(c.pct)
		if got > c.want || float64(c.want-got) > float64(c.want)/histSub {
			t.Errorf("p%d = %v, want within 1/%d below %v", c.pct, got, histSub, c.want)
		}
	}
	for v := int64(0); v < 1<<20; v += 977 {
		if b := histBucket(v); histLow(b) > v || histBucket(histLow(b)) != b {
			t.Fatalf("bucket %d of %d has low edge %d", b, v, histLow(b))
		}
	}
}

func TestHostSpeedNormalization(t *testing.T) {
	// Each repetition's steps are divided by its slowdown, then the median
	// is taken per step: the 100 s burst in the third repetition drops out.
	sec := func(xs ...float64) []time.Duration {
		var ds []time.Duration
		for _, x := range xs {
			ds = append(ds, time.Duration(x*float64(time.Second)))
		}
		return ds
	}
	reps := []repOut{
		{itemHost: sec(2, 4), slowdown: 2},
		{itemHost: sec(1, 2), slowdown: 1},
		{itemHost: sec(3, 100), slowdown: 1},
	}
	if got := referenceSeconds(reps); got != 3 {
		t.Errorf("per-step reference seconds = %v, want 3", got)
	}
	// A repetition that is one call is normalized as a whole.
	calls := []repOut{{host: 10 * time.Second, slowdown: 2}, {host: 4 * time.Second, slowdown: 1}, {host: 9 * time.Second, slowdown: 3}}
	if got := referenceSeconds(calls); got != 4 {
		t.Errorf("per-call reference seconds = %v, want 4", got)
	}
}

// TestKernelsBarelyAllocate: a kernel that allocated per element would
// make its time depend on the program's heap and GC.
func TestKernelsBarelyAllocate(t *testing.T) {
	for name, k := range map[string]kernel{"walk": kernelWalk, "map": kernelMap, "sort": kernelSort} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 4; i++ {
			k.run()
		}
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b > 16<<20 {
			t.Errorf("%s kernel: %d bytes allocated in 4 runs", name, b)
		}
	}
	if n := testing.AllocsPerRun(3, kernelWalk.run); n != 0 {
		t.Errorf("walk kernel: %v allocations per run", n)
	}
}

func TestHostVerdicts(t *testing.T) {
	rate := metricDef{name: "items_per_s", better: higher, bound: 0.2}
	cases := []struct {
		a, b [3]float64
		want string
	}{
		{[3]float64{90, 100, 110}, [3]float64{70, 75, 80}, "worse"},
		{[3]float64{90, 100, 110}, [3]float64{115, 120, 125}, "better"},
		{[3]float64{90, 100, 110}, [3]float64{95, 105, 112}, "unresolved"},
	}
	for _, c := range cases {
		delta := (c.b[1] - c.a[1]) / c.a[1]
		if got := hostVerdict(rate, c.a, c.b, delta); got != c.want {
			t.Errorf("%v vs %v: %s, want %s", c.a, c.b, got, c.want)
		}
	}
}
