package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// compareMain implements "gmbench compare A B": A and B are files holding
// the standard output of any number of runs (the baseline and the change).
// For each workload × metric it prints each side's median and quartiles,
// the relative delta and a verdict. Host metrics are "worse" when the
// change's median is worse than the baseline's by more than the metric's
// bound, "better" when the two interquartile ranges are disjoint in the
// change's favour, and "unresolved" otherwise. Simulated metrics are
// compared exactly, seed by seed: "identical" or "changed".
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: gmbench compare <baseline-output> <change-output>")
	}
	a, err := readRecords(args[0])
	if err != nil {
		return err
	}
	b, err := readRecords(args[1])
	if err != nil {
		return err
	}
	return compare(a, b, w)
}

// readRecords reads every run record (kind gmbench-run, no error) from the
// lines of a file; other lines are ignored.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var r record
		if json.Unmarshal([]byte(line), &r) != nil || r.Kind != recordKind || r.Error != "" {
			continue
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no benchmark records", path)
	}
	return out, nil
}

// verdict is one workload × metric row of a comparison.
type verdict struct {
	workload, metric, unit string
	a, b                   [3]float64 // q1, median, q3
	delta                  float64    // (median B − median A) / median A
	verdict                string
}

func compare(a, b []record, w io.Writer) error {
	rows := compareRows(a, b)
	if len(rows) == 0 {
		return fmt.Errorf("the two sets share no workload and metric")
	}
	fmt.Fprintf(w, "%-15s %-28s %-6s %32s %32s %9s  %s\n", "workload", "metric", "unit",
		"baseline q1/median/q3", "change q1/median/q3", "delta", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-28s %-6s %32s %32s %+8.2f%%  %s\n", r.workload, r.metric, r.unit,
			triple(r.a), triple(r.b), 100*r.delta, r.verdict)
	}
	return nil
}

func triple(q [3]float64) string {
	return fmt.Sprintf("%.5g/%.5g/%.5g", q[0], q[1], q[2])
}

func compareRows(a, b []record) []verdict {
	var rows []verdict
	for _, wl := range workloads {
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range list {
				va, sa := series(a, wl.name, m.name)
				vb, sb := series(b, wl.name, m.name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				r := verdict{workload: wl.name, metric: m.name, unit: m.unit}
				r.a[0], r.a[1], r.a[2] = quartiles(va)
				r.b[0], r.b[1], r.b[2] = quartiles(vb)
				if r.a[1] != 0 {
					r.delta = (r.b[1] - r.a[1]) / math.Abs(r.a[1])
				}
				if m.sim {
					r.verdict = exactVerdict(sa, sb)
				} else {
					r.verdict = hostVerdict(m, r.a, r.b, r.delta)
				}
				rows = append(rows, r)
			}
		}
	}
	return rows
}

// series collects one metric's values for a workload, with the seed of
// each value.
func series(rs []record, workload, metric string) ([]float64, []seeded) {
	var xs []float64
	var ss []seeded
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		if mv, ok := r.Metrics[metric]; ok {
			xs = append(xs, mv.Value)
			ss = append(ss, seeded{seed: r.Seed, value: mv.Value})
		}
	}
	return xs, ss
}

type seeded struct {
	seed  uint64
	value float64
}

// exactVerdict compares a simulated metric seed by seed: any seed on both
// sides whose values differ is a change in behaviour.
func exactVerdict(a, b []seeded) string {
	common := 0
	for _, x := range a {
		for _, y := range b {
			if x.seed != y.seed {
				continue
			}
			common++
			if x.value != y.value {
				return fmt.Sprintf("changed (seed %d: %v -> %v)", x.seed, x.value, y.value)
			}
		}
	}
	if common == 0 {
		return "unresolved (no common seed)"
	}
	return "identical"
}

// hostVerdict judges a host metric by its bound and the two sides' spread.
func hostVerdict(m metricDef, a, b [3]float64, delta float64) string {
	worse := delta
	if m.better == higher {
		worse = -delta
	}
	if m.bound > 0 && worse > m.bound {
		return "worse"
	}
	// Disjoint interquartile ranges in the change's favour.
	if m.better == lower && b[2] < a[0] || m.better == higher && b[0] > a[2] {
		return "better"
	}
	if m.bound == 0 && (m.better == lower && b[0] > a[2] || m.better == higher && b[2] < a[0]) {
		return "worse"
	}
	return "unresolved"
}
