package main

import (
	"time"

	"repro/internal/model"
	"repro/internal/sim"
	"repro/internal/workload"
)

// trainLRO fine-tunes OPT-13B with LoRA, recompute and offload (the
// paper's "LRO" strategy) on 4 simulated 80 GiB A100s, from a cold
// allocator for a fixed number of steps, on GMLake and then on the caching
// baseline, as every harness comparison cell does.
type trainLRO struct {
	spec     workload.Spec
	steps    int
	capacity int64
}

func newTrainLRO(seed uint64, quick bool) *trainLRO {
	w := &trainLRO{
		spec: workload.Spec{Model: model.OPT13B, Strategy: workload.StrategyLRO,
			Platform: workload.DeepSpeed, World: 4, Batch: 24, Seed: seed},
		steps:    200,
		capacity: 80 * sim.GiB,
	}
	if quick {
		w.steps = 4
	}
	return w
}

func (w *trainLRO) name() string { return "train-lro" }

func (w *trainLRO) kernels() []kernel { return []kernel{kernelWalk, kernelSort} }

func (w *trainLRO) inputs() map[string]int {
	return map[string]int{"steps": w.steps, "world": w.spec.World, "batch": w.spec.Batch,
		"device_gib": int(w.capacity / sim.GiB)}
}

// setup builds a GMLake rig and the trainer's persistent state, returning
// the host time of NewTrainer + Setup.
func (w *trainLRO) setup(h hooks) (time.Duration, error) {
	r := newRig(w.capacity, backendGMLake, h)
	start := hostNow()
	if h.t != nil {
		h.t.begin(layerWorkload, "setup")
	}
	tr, err := workload.NewTrainer(w.spec, r.alloc, r.clock)
	if err == nil {
		err = tr.Setup()
	}
	if h.t != nil {
		h.t.end()
	}
	d := hostSince(start)
	if err != nil {
		return d, gateErr("setup", "train-lro: %v", err)
	}
	tr.Teardown()
	return d, r.checkDrained("train-lro setup")
}

// rep trains from cold on GMLake, timing each step, then runs the same
// spec on the caching baseline.
func (w *trainLRO) rep(h hooks) (repOut, error) {
	out := repOut{v: vals{}, items: w.steps}
	g := newRig(w.capacity, backendGMLake, h)
	tr, err := workload.NewTrainer(w.spec, g.alloc, g.clock)
	if err == nil {
		err = tr.Setup()
	}
	if err != nil {
		return out, gateErr("setup", "train-lro: %v", err)
	}

	simStart := g.clock.Now()
	simSteps := make([]time.Duration, 0, w.steps)
	start := hostNow()
	for i := 0; i < w.steps; i++ {
		if h.t != nil {
			h.t.begin(layerWorkload, "step")
		}
		s0, c0 := hostNow(), g.clock.Now()
		err := tr.Step()
		out.itemHost = append(out.itemHost, hostSince(s0))
		simSteps = append(simSteps, g.clock.Now()-c0)
		if h.t != nil {
			_, self := h.t.end()
			h.t.stepSelf = append(h.t.stepSelf, self)
		}
		if err != nil {
			out.failed = w.steps - i
			break
		}
	}
	out.host = hostSince(start)
	simRun := g.clock.Now() - simStart
	if h.mem != nil {
		h.mem() // the pools only grow, so the end of the run is the peak
	}

	if err := g.checkInvariants("train-lro gmlake"); err != nil {
		return out, err
	}
	st := g.raw.Stats()
	out.v["peak_reserved_gib"] = float64(st.PeakReserved) / gib
	out.v["utilization_pct"] = 100 * st.Utilization()
	out.v["latency_ms_tail"] = ms(tailMean(simSteps, 95))
	out.v["sim_makespan_s"] = simRun.Seconds()
	out.v["workload.steps"] = float64(len(simSteps))
	out.v["workload.sim_step_ms"] = ms(simRun) / float64(len(simSteps))
	out.v["core.ops"] = float64(st.AllocCount + st.FreeCount)
	g.coreCounts(out.v)
	tr.Teardown()
	if err := g.checkDrained("train-lro gmlake"); err != nil {
		return out, err
	}
	out.v["cuda.calls_per_alloc"] = float64(g.cudaCounts(out.v)) / float64(st.AllocCount)

	if h.t != nil {
		h.t.begin(layerWorkload, "caching-baseline")
		defer h.t.end()
	}
	return out, w.baseline(h, out.v)
}

// baseline runs the same steps on the caching allocator and records its
// footprint: the comparison the paper's headline saving is measured against.
func (w *trainLRO) baseline(h hooks, v vals) error {
	c := newRig(w.capacity, backendCaching, h)
	tr, err := workload.NewTrainer(w.spec, c.alloc, c.clock)
	if err == nil {
		err = tr.Setup()
	}
	for i := 0; err == nil && i < w.steps; i++ {
		err = tr.Step()
	}
	if err != nil {
		return gateErr("baseline", "train-lro caching: %v", err)
	}
	st := c.raw.Stats()
	v["caching.peak_reserved_gib"] = float64(st.PeakReserved) / gib
	v["caching.utilization_pct"] = 100 * st.Utilization()
	v["caching.ops"] = float64(st.AllocCount + st.FreeCount)
	tr.Teardown()
	return c.checkDrained("train-lro caching")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
