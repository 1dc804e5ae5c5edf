package main

import (
	"reflect"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/servegen"
	"repro/internal/sim"
)

// serveCluster is one serving workload: a servegen stream fixed before the
// run (an open loop in simulated time: arrivals are scheduled up front, a
// slow fleet builds a queue, latency counts from the scheduled arrival),
// served by a static fleet of replicas, each a ChunkedKV manager over its
// own device and allocator.
type serveCluster struct {
	id       string
	mix      servegen.Mix
	n        int
	seed     uint64
	backend  string
	capacity int64
	cfg      serve.ClusterConfig
	// sessions requires prefix hits and affinity-routed dispatches.
	sessions bool

	reqs []serve.Request
}

const kvChunkTokens = 64

var kvModel = model.OPT1_3B

// newServeFleet: a sessionless mixed-bursty stream on 64 replicas with jsq
// dispatch and 2 s priority aging, ChunkedKV over the caching allocator, at
// a fixed rate below the fleet's latency knee.
func newServeFleet(seed uint64, quick bool) *serveCluster {
	w := &serveCluster{
		id: "serve-fleet", mix: servegen.MixedBursty(), n: 100000, seed: seed,
		backend: backendCaching, capacity: 4 * sim.GiB,
		cfg: serve.ClusterConfig{Replicas: 64, Dispatch: serve.DispatchPolicy("jsq"),
			Server: serve.ServerConfig{MaxBatch: 24, Aging: 2 * time.Second}},
	}
	rate := 56.0
	if quick {
		w.n, w.cfg.Replicas, rate = 2000, 8, 7
	}
	w.mix = w.mix.WithRate(w.mix.Rate * rate)
	return w
}

// newServeSessions: a chat-sessions multi-turn stream with KV prefix reuse
// and session-affinity dispatch on 8 replicas, ChunkedKV over GMLake, on
// devices small enough that KV memory binds. 1.75 GiB is the smallest size
// tried at which no seed from 1 to 40 hits GMLake's small-path OOM (see
// METRICS.md, "Known defect"); at 1.5 GiB three of seeds 11–15 do.
func newServeSessions(seed uint64, quick bool) *serveCluster {
	w := &serveCluster{
		id: "serve-sessions", mix: servegen.ChatSessions(), n: 20000, seed: seed,
		backend: backendGMLake, capacity: 7 * sim.GiB / 4, sessions: true,
		cfg: serve.ClusterConfig{Replicas: 8, Dispatch: serve.DispatchPolicy("session-affinity"),
			Server: serve.ServerConfig{MaxBatch: 24, PrefixReuse: true}},
	}
	if quick {
		w.n = 1000
	}
	w.mix = w.mix.WithRate(w.mix.Rate * 4)
	return w
}

func (w *serveCluster) name() string { return w.id }

func (w *serveCluster) kernels() []kernel { return []kernel{kernelMap, kernelSort} }

func (w *serveCluster) inputs() map[string]int {
	return map[string]int{"requests": w.n, "replicas": w.cfg.Replicas,
		"rate_milli_per_s": int(w.mix.Rate * 1000), "device_mib": int(w.capacity / sim.MiB),
		"sessions": sessionCount(w.reqs)}
}

// setup generates the request stream, returning the host time of
// Mix.Generate. Every setup of one seed must yield the same stream.
func (w *serveCluster) setup(h hooks) (time.Duration, error) {
	if h.t != nil {
		h.t.begin(layerServegen, "generate")
	}
	start := hostNow()
	reqs, err := w.mix.Generate(w.n, w.seed)
	d := hostSince(start)
	if h.t != nil {
		h.t.end()
	}
	if err != nil {
		return d, gateErr("setup", "%s: %v", w.id, err)
	}
	if w.reqs != nil && !reflect.DeepEqual(reqs, w.reqs) {
		return d, gateErr("determinism", "%s: Generate returned a different stream for seed %d", w.id, w.seed)
	}
	w.reqs = reqs
	return d, nil
}

// rep serves the stream once on a fresh fleet and checks the serving gates.
func (w *serveCluster) rep(h hooks) (repOut, error) {
	out := repOut{v: vals{}, items: len(w.reqs)}
	var rigs []*rig
	var mgrs []serve.CacheManager
	newMgr := func(replica int) serve.CacheManager {
		r := newRig(w.capacity, w.backend, h)
		var m serve.CacheManager = serve.NewChunkedKV(r.alloc, kvModel, kvChunkTokens)
		if h.t != nil {
			m = newTracedKV(m, h.t, replica)
		}
		if h.kv != nil {
			m = h.kv(m)
		}
		rigs = append(rigs, r)
		mgrs = append(mgrs, m)
		return m
	}
	cfg := w.cfg
	if h.exact {
		cfg.Server.ExactSamples = len(w.reqs)
	}
	if h.mem != nil {
		// The last completion is the memory peak: every request's record
		// and latency sample exists and nothing has been merged away yet.
		out.probed = true
		completed := 0
		cfg.Server.OnComplete = func(serve.Request) {
			completed++
			if completed == len(w.reqs) {
				h.mem()
			}
		}
	}

	if h.t != nil {
		h.t.begin(layerServe, "serve-cluster")
	}
	start := hostNow()
	rep, err := serve.ServeCluster(w.reqs, newMgr, cfg)
	out.host = hostSince(start)
	if h.t != nil {
		h.t.end()
	}
	if err != nil {
		out.failed = len(w.reqs)
		return out, gateErr("serve", "%s: %v", w.id, err)
	}
	out.failed = rep.Lost + int(rep.Shed)

	if got := rep.Served + rep.Lost + int(rep.Shed); got != len(w.reqs) {
		return out, gateErr("conservation", "%s: served %d + lost %d + shed %d != offered %d",
			w.id, rep.Served, rep.Lost, rep.Shed, len(w.reqs))
	}
	for i, m := range mgrs {
		if m.UsedBytes() != 0 || m.LogicalBytes() != 0 {
			return out, gateErr("kv-drained", "%s: replica %d KV manager holds %d used / %d logical bytes after the run",
				w.id, i, m.UsedBytes(), m.LogicalBytes())
		}
	}
	var reserved, peakActive, allocs, frees, calls int64
	for _, r := range rigs {
		if err := r.checkDrained(w.id); err != nil {
			return out, err
		}
		st := r.raw.Stats()
		reserved += st.PeakReserved
		peakActive += st.PeakActive
		allocs += st.AllocCount
		frees += st.FreeCount
		r.coreCounts(out.v)
		calls += r.cudaCounts(out.v)
	}
	if rep.TTFT.P50 > rep.E2E.P50 || rep.TTFT.P99 > rep.E2E.P99 {
		return out, gateErr("ttft-le-e2e", "%s: TTFT p50/p99 %v/%v exceed E2E %v/%v",
			w.id, rep.TTFT.P50, rep.TTFT.P99, rep.E2E.P50, rep.E2E.P99)
	}
	if w.sessions && (rep.PrefixHits == 0 || rep.AffinityRouted == 0) {
		return out, gateErr("sessions", "%s: %d prefix hits, %d affinity-routed; want both > 0",
			w.id, rep.PrefixHits, rep.AffinityRouted)
	}

	v := out.v
	v["peak_reserved_gib"] = float64(reserved) / gib
	v["utilization_pct"] = 100 * float64(rep.PeakLogical) / float64(reserved)
	v["latency_ms_tail"] = ms(rep.TTFT.P99)
	v["sim_makespan_s"] = rep.Duration.Seconds()
	v[w.backendLayer()+".ops"] = float64(allocs + frees)
	if w.backend == backendCaching {
		v["caching.peak_reserved_gib"] = v["peak_reserved_gib"]
		v["caching.utilization_pct"] = 100 * float64(peakActive) / float64(reserved)
	}
	v["cuda.calls_per_alloc"] = float64(calls) / float64(allocs)
	v["serve.kv.utilization_pct"] = 100 * rep.Utilization()
	v["serve.steps"] = float64(rep.Steps)
	v["serve.mean_batch"] = rep.MeanBatch
	v["serve.preemptions"] = float64(rep.Preemptions)
	v["serve.admit_failures"] = float64(rep.AdmitFailures)
	v["serve.blocked_steps"] = float64(rep.BlockedSteps)
	if turns := rep.PrefixHits + rep.PrefixMisses; turns > 0 {
		v["serve.prefix_hit_ratio"] = float64(rep.PrefixHits) / float64(turns)
	}
	v["serve.reused_tokens"] = float64(rep.ReusedTokens)
	v["serve.affinity_ratio"] = float64(rep.AffinityRouted) / float64(len(w.reqs))
	v["serve.imbalance_pct"] = imbalancePct(rep.Assigned)
	v["serve.sketched_samples"] = float64(rep.SketchedSamples)
	v["serve.ttft_ms_p50"] = ms(rep.TTFT.P50)
	v["serve.e2e_ms_p99"] = ms(rep.E2E.P99)
	return out, nil
}

func (w *serveCluster) backendLayer() string {
	if w.backend == backendGMLake {
		return layerNames[layerCore]
	}
	return layerNames[layerCaching]
}

// imbalancePct is how far the busiest replica's dispatch count exceeds the
// mean, in percent of the mean.
func imbalancePct(assigned []int) float64 {
	if len(assigned) == 0 {
		return 0
	}
	total, most := 0, 0
	for _, a := range assigned {
		total += a
		most = max(most, a)
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(assigned))
	return 100 * (float64(most) - mean) / mean
}

func sessionCount(reqs []serve.Request) int {
	seen := map[string]bool{}
	for _, r := range reqs {
		if r.SessionID != "" {
			seen[r.SessionID] = true
		}
	}
	return len(seen)
}
