package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted
	}
	if got, err := percentile(xs, 95); err != nil || got != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 (10 samples beyond)", got, err)
	}
	if got, err := percentile(xs, 50); err != nil || got != 100 {
		t.Errorf("p50 of 1..200 = %v, %v; want 100", got, err)
	}
	if _, err := percentile(xs, 99); err == nil {
		t.Error("p99 of 200 samples has 2 beyond it and must be refused")
	}
	if _, err := percentile(xs[:199], 95); err == nil {
		t.Error("p95 of 199 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("a percentile of no samples must be refused")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestReportRefuses: a metric that is not a number fails the run, and so does
// an op loop the deadline cut short.
func TestReportRefuses(t *testing.T) {
	m := newMetricSet()
	m.set("a", 1, "ms", 1)
	if err := m.check(); err != nil {
		t.Errorf("check of finite metrics: %v", err)
	}
	m.set("b", math.Log10(0), "exponent", 0)
	m.set("c", math.NaN(), "ratio", 0)
	if err := m.check(); err == nil {
		t.Error("check passed -Inf and NaN")
	}
	rep := &report{Extras: newMetricSet()}
	rep.finish(&samples{attempted: 7, skipped: 3}, nil)
	if rep.Correct || rep.Failed != 3 || rep.Attempted != 11 || rep.OpsSkipped != 3 || rep.FirstError == "" {
		t.Errorf("a run 3 operations short: correct %v, failed %d of %d, skipped %d, %q",
			rep.Correct, rep.Failed, rep.Attempted, rep.OpsSkipped, rep.FirstError)
	}
	w, _ := findWorkload("annotate-burst")
	_, inst, err := w.setUp(&env{}, 1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if s, err := inst.run(5, false, time.Now().Add(-time.Second)); err != nil || s.skipped != 5 {
		t.Errorf("op loop past its deadline: skipped %d of 5, err %v", s.skipped, err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},   // overlaps a: 10..60 is covered once
		{Name: "c", Parent: 0, Start: 90, End: 120},  // clipped to the parent's end
		{Name: "a.x", Parent: 1, Start: 15, End: 20}, // a child's child is not the parent's
		{Name: "other", Parent: -1, Start: 200, End: 250},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 50}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	rows := layerTable(spans, "op")
	if len(rows) != 5 || rows[0].Layer != "op" || rows[0].Share != 0.4 {
		t.Errorf("layerTable = %+v; want 5 rows under op, op first with share 0.4", rows)
	}
	joined := appendSpans(spans[:2:2], spans[:2])
	if joined[3].Parent != 2 || joined[2].Parent != -1 {
		t.Errorf("appendSpans parents = %d, %d; want -1, 2", joined[2].Parent, joined[3].Parent)
	}
}

// TestGeneratorsRepeat: the same seed gives byte-identical inputs and the
// same request sequence; another seed gives other inputs.
func TestGeneratorsRepeat(t *testing.T) {
	const size = 0.02
	for _, w := range workloads {
		a, err := w.gen(7, size)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.gen(7, size)
		c, _ := w.gen(8, size)
		for i := range a.docs {
			if !bytes.Equal(a.docs[i].xml, b.docs[i].xml) {
				t.Errorf("%s: document %d differs between two runs of seed 7", w.name, i)
			}
			if bytes.Equal(a.docs[i].xml, c.docs[i].xml) {
				t.Errorf("%s: document %d is the same for seeds 7 and 8", w.name, i)
			}
		}
		if !slices.Equal(a.texts, b.texts) {
			t.Errorf("%s: query texts differ between two runs of seed 7", w.name)
		}
	}
	mix := func(seed uint64, client int) []string {
		w := &smallMixed{served: &served{srv: &serverProc{}}, seed: seed, scenes: 4, cached: make([]mixedOp, mixedCached)}
		for i := 0; i < mixedHot; i++ {
			w.hot = append(w.hot, mixedOp{url: hotText(i, 4)})
		}
		var urls []string
		for _, op := range w.mix(client, 500) {
			urls = append(urls, op.url)
		}
		return urls
	}
	if !slices.Equal(mix(7, 0), mix(7, 0)) {
		t.Error("small-mixed: request sequence differs between two runs of seed 7")
	}
	if slices.Equal(mix(7, 0), mix(8, 0)) {
		t.Error("small-mixed: request sequence is the same for seeds 7 and 8")
	}
	if slices.Equal(mix(7, 0), mix(7, 1)) {
		t.Error("small-mixed: both clients send the same sequence")
	}
	seen := map[[2]int64]bool{}
	for k := 0; k < 3000; k++ {
		s, e := markAt(k, 1000)
		if seen[[2]int64{s, e}] {
			t.Fatalf("markAt(%d) repeats region [%d,%d]", k, s, e)
		}
		seen[[2]int64{s, e}] = true
	}
}

// benchmarkJSON is the metric lists of ../BENCHMARK.json, as "name unit".
func benchmarkJSON(t *testing.T) (e2e, layers []string) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for i, w := range bf.Workloads {
		if i >= len(workloads) || w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %q, harness has %v", i, w.Name, workloads)
		}
	}
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	sort.Strings(e2e)
	sort.Strings(layers)
	return e2e, layers
}

// TestWorkloadsShort runs every workload end to end and traced on tiny
// inputs and holds the metric names and units against BENCHMARK.json: every
// named metric present and finite, nothing else reported, no operation
// failed.
func TestWorkloadsShort(t *testing.T) {
	dir := t.TempDir()
	soxqd := filepath.Join(dir, "soxqd")
	if out, err := exec.Command("go", "build", "-o", soxqd, "soxq/cmd/soxqd").CombinedOutput(); err != nil {
		t.Fatalf("build soxqd: %v\n%s", err, out)
	}
	e2e, layers := benchmarkJSON(t)
	e := &env{soxqd: soxqd, tmp: dir, nproc: runtime.NumCPU()}
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			rep := &report{Workload: w.name, Traced: traced, Seed: 3, Seconds: 1, Ops: 220, Size: 0.02,
				Metrics: newMetricSet(), Extras: newMetricSet()}
			want := e2e
			var err error
			start := time.Now()
			if traced {
				want = layers
				rep.Ops = 2 * 8 * traceBlock
				_, err = runTraced(w, e, rep)
			} else {
				err = runEndToEnd(w, e, rep)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			t.Logf("%s traced=%v: %v", w.name, traced, time.Since(start))
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 || rep.OpsSkipped != 0 {
				t.Errorf("%s traced=%v: correct %v, failed %d of %d, %d skipped: %s", w.name, traced, rep.Correct, rep.Failed, rep.Attempted, rep.OpsSkipped, rep.FirstError)
			}
			var got []string
			for name, m := range rep.Metrics.m {
				got = append(got, name+" "+m.Unit)
			}
			sort.Strings(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v reports\n%v\nBENCHMARK.json lists\n%v", w.name, traced, got, want)
			}
			for name, m := range rep.Metrics.m { // finite: runEndToEnd and runTraced end on metricSet.check
				if !traced && m.Value <= 0 {
					t.Errorf("%s %s = %v: end-to-end metrics are never 0", w.name, name, m.Value)
				}
			}
		}
	}
}
