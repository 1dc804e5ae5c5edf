// Command gmbench is the repository's benchmark. One run measures one
// workload for a fixed host time and prints, as the last line of standard
// output, a JSON object with "correct", "attempted", "failed" and
// "metrics": every end-to-end metric of an untraced run (-trace 0) or
// every per-layer metric of a traced run (-trace 1). The line before it is
// the run's full record (environment, input sizes, repetitions), which
// compare mode reads back:
//
//	gmbench --workload train-lro --seed 1 --seconds 20 --trace 0
//	gmbench compare base.txt change.txt
//
// Workloads are train-lro, serve-fleet and serve-sessions; METRICS.md says
// why each was chosen and what every metric means on it. A run that fails
// a correctness gate prints "correct": false with the gate's reason and
// exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// workloads maps each workload name to its constructor.
var workloads = []struct {
	name string
	make func(seed uint64, quick bool) bench
}{
	{"train-lro", func(s uint64, q bool) bench { return newTrainLRO(s, q) }},
	{"serve-fleet", func(s uint64, q bool) bench { return newServeFleet(s, q) }},
	{"serve-sessions", func(s uint64, q bool) bench { return newServeSessions(s, q) }},
}

func newBench(name string, seed uint64, quick bool) (bench, error) {
	for _, w := range workloads {
		if w.name == name {
			return w.make(seed, quick), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (train-lro, serve-fleet, serve-sessions)", name)
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "gmbench compare:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("gmbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: train-lro, serve-fleet or serve-sessions")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 30, "host seconds of repetitions to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceFile := fs.String("trace-file", "", "Chrome trace output of a traced run (default .bench_build/traces/<workload>-seed<n>.json)")
	_ = fs.Parse(os.Args[1:])
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "gmbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if _, err := newBench(*name, *seed, false); err != nil {
		fmt.Fprintln(os.Stderr, "gmbench:", err)
		os.Exit(2)
	}
	opts := options{seconds: *seconds, traceFile: *traceFile}
	if *trace == 1 && opts.traceFile == "" {
		opts.traceFile = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *name, *seed))
	}
	// The simulation is one goroutine. With one P the collector runs on
	// the same core as the simulation instead of on the second core, where
	// whatever else the machine runs made repetitions of train-lro, the
	// allocation-heaviest workload, vary by 25 %.
	runtime.GOMAXPROCS(1)
	rec, err := run(*name, *seed, false, *trace == 1, opts)
	if err := emit(os.Stdout, rec); err != nil {
		fmt.Fprintln(os.Stderr, "gmbench:", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gmbench:", err)
		os.Exit(1)
	}
}

// canonicalSeed seeds the inputs every run measures host time on,
// whatever its own seed: harness.NewEnv's seed, the stream every harness
// cell trains. Inputs differ in how much host work they cost (on
// train-lro, one 200-step run takes 6.5 to 14 host seconds depending on
// the seed, with the number of sBlocks stitched), so timing each run's own
// inputs would compare inputs, not the simulator.
const canonicalSeed = 7

// run measures one workload and returns its record; on error the record
// carries the reason and no metrics.
func run(name string, seed uint64, quick, traced bool, opts options) (record, error) {
	own, err := newBench(name, seed, quick)
	if err != nil {
		return record{}, err
	}
	rec := record{Kind: recordKind, Workload: name, Seed: seed, Trace: traced, Env: currentEnv()}
	timed, _ := newBench(name, canonicalSeed, quick)
	if traced {
		err = runTraced(own, timed, &rec, opts)
	} else {
		err = runEndToEnd(own, timed, &rec, opts)
	}
	if err != nil {
		rec.Error = err.Error()
		rec.Metrics = map[string]metricValue{}
		rec.Failed = max(rec.Failed, 1)
		rec.Attempted = max(rec.Attempted, 1)
	}
	return rec, err
}

// emit prints the record line and then the contract result line.
func emit(w io.Writer, rec record) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return enc.Encode(result{Correct: rec.Error == "", Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
}
