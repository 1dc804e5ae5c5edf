package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer is one module of the simulator whose host time the traced run
// attributes. bench is the benchmark's own code (rig assembly, gates,
// teardown) and owns whatever no other layer's calls cover.
type layer int

const (
	layerBench layer = iota
	layerServegen
	layerWorkload
	layerServe
	layerKV
	layerCore
	layerCaching
	numLayers
)

var layerNames = [numLayers]string{"bench", "servegen", "workload", "serve", "serve.kv", "core", "caching"}

// op is one per-call operation the wrappers time. Per-op calls run millions
// of times per run, so they go into histograms, never into spans.
type op int

const (
	opAlloc op = iota
	opFree
	opAdmit
	opAppend
	opRelease
	numOps
)

// opStat aggregates one (layer, op) pair.
type opStat struct {
	hist  hist
	fails int64
}

// span is one coarse call recorded for the Chrome trace: a training step,
// a whole ServeCluster call, one Generate. Parent indexes spans (-1 = none).
type span struct {
	name       string
	layer      layer
	parent     int
	start, end time.Duration
}

// reqSpan is one request's host-time lifetime inside its KV manager, from
// its first Admit to its Release, written as a Chrome async event keyed by
// request ID. Only the first maxReqSpans are kept so trace files stay small.
type reqSpan struct {
	id, replica int
	start, end  time.Duration
}

const maxReqSpans = 5000

// frame is one open call on the tracer's stack: a span or a per-op call.
type frame struct {
	layer layer
	start time.Duration
	child time.Duration // time covered by nested frames
	span  int           // index into spans, or -1 for a per-op call
}

// tracer attributes host time to layers. Every timed call is a frame on
// one stack; a frame's self time is its duration minus its children's, and
// it is added to its layer's total. The frames therefore partition the
// root's wall time: the layers' self times sum to the traced wall time
// (checkAttribution holds that against an independent clock).
type tracer struct {
	origin   time.Time
	stack    []frame
	self     [numLayers]time.Duration
	busy     [numLayers]time.Duration // inclusive time in per-op calls
	ops      [numLayers][numOps]opStat
	spans    []span
	reqs     []reqSpan
	stepSelf []time.Duration // self time of each workload step frame
}

func newTracer() *tracer { return &tracer{origin: hostNow()} }

func (t *tracer) now() time.Duration { return hostSince(t.origin) }

func (t *tracer) push(l layer, sp int) {
	t.stack = append(t.stack, frame{layer: l, start: t.now(), span: sp})
}

// pop closes the innermost frame and returns its duration and self time.
func (t *tracer) pop() (d, self time.Duration) {
	end := t.now()
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d = end - f.start
	self = d - f.child
	t.self[f.layer] += self
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
	if f.span >= 0 {
		t.spans[f.span].end = end
	}
	return d, self
}

// begin opens a span; end closes the innermost one.
func (t *tracer) begin(l layer, name string) {
	parent := -1
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i].span >= 0 {
			parent = t.stack[i].span
			break
		}
	}
	t.spans = append(t.spans, span{name: name, layer: l, parent: parent, start: t.now()})
	t.push(l, len(t.spans)-1)
}

func (t *tracer) end() (d, self time.Duration) { return t.pop() }

// enter opens a per-op call of layer l; leave closes it, recording its
// duration under op o and counting it failed when err is non-nil.
func (t *tracer) enter(l layer) { t.push(l, -1) }

func (t *tracer) leave(l layer, o op, err error) {
	d, _ := t.pop()
	st := &t.ops[l][o]
	st.hist.add(d)
	if err != nil {
		st.fails++
	}
	t.busy[l] += d
}

// selfSum returns the sum of every layer's self time.
func (t *tracer) selfSum() time.Duration {
	var s time.Duration
	for _, d := range t.self {
		s += d
	}
	return s
}

// traceEvent is one Chrome trace-event record (Perfetto and chrome://tracing
// read the JSON array form).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]int `json:"args,omitempty"`
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// writeChrome writes the spans (thread 1) and the kept request lifetimes
// (async events, one per request ID) as a Chrome trace-event JSON array.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if _, err := w.WriteString("[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev traceEvent) error {
		if !first {
			if _, err := w.WriteString(","); err != nil {
				return err
			}
		}
		first = false
		return enc.Encode(ev)
	}
	for i, s := range t.spans {
		ev := traceEvent{Name: s.name, Cat: layerNames[s.layer], Ph: "X", Ts: micros(s.start),
			Dur: micros(s.end - s.start), Pid: 1, Tid: 1, Args: map[string]int{"span": i, "parent": s.parent}}
		if err := emit(ev); err != nil {
			return err
		}
	}
	for _, r := range t.reqs {
		id := fmt.Sprint(r.id)
		args := map[string]int{"request": r.id, "replica": r.replica}
		if err := emit(traceEvent{Name: "request", Cat: "serve.kv", Ph: "b", Ts: micros(r.start), Pid: 1, Tid: 2, ID: id, Args: args}); err != nil {
			return err
		}
		if err := emit(traceEvent{Name: "request", Cat: "serve.kv", Ph: "e", Ts: micros(r.end), Pid: 1, Tid: 2, ID: id}); err != nil {
			return err
		}
	}
	if _, err := w.WriteString("]\n"); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
