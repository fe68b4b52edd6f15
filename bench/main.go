// Command soxbench is the repository's benchmark: four workloads over the
// soxq engine and the soxqd server, end-to-end metrics measured with tracing
// off, and a traced run per workload that attributes time to layers. See
// README.md; run it through run.sh, which builds it and soxqd first.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// A run sets the workload up at least minSetups times, and again while that
// took less than setupBudget (up to maxSetups): setup_s is the median, the
// last instance is the one measured.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
)

// report is everything one run measured; the last line of stdout carries
// its driver-facing subset.
type report struct {
	Workload   string         `json:"workload"`
	Why        string         `json:"why"`
	Op         string         `json:"operation"`
	Traced     bool           `json:"traced"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Ops        int            `json:"ops"`
	OpsSkipped int            `json:"ops_skipped"` // left out at the deadline; 0 on a valid run
	Size       float64        `json:"size"`
	Frozen     map[string]any `json:"frozen"`
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Commit     string         `json:"commit"`
	Correct    bool           `json:"correct"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	FirstError string         `json:"first_error,omitempty"`
	Metrics    *metricSet     `json:"metrics"`
	Extras     *metricSet     `json:"extras"`
	OpTable    []layerRow     `json:"op_table,omitempty"`
	LayerTable []layerRow     `json:"layer_table,omitempty"`
}

func main() {
	workloadName := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", runSeconds, "run length the op counts are scaled to")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	out := flag.String("out", "", "directory for <workload>.json, <workload>-layers.json and trace-<workload>.json")
	selfcheck := flag.Bool("selfcheck", false, "run every workload's end-to-end phase twice and compare against the bounds")
	flag.Parse()

	// run.sh builds soxqd next to the harness.
	soxqd := filepath.Join(binDir(), "soxqd")
	if _, err := os.Stat(soxqd); err != nil {
		fatal(fmt.Errorf("no soxqd binary (run through bench/run.sh): %w", err))
	}
	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, *seconds))
	case *workloadName == "all":
		os.Exit(runAll(*seed, *seconds, *out))
	}
	w, err := findWorkload(*workloadName)
	if err != nil {
		fatal(err)
	}
	// Generated documents stay inside the checkout, next to the binaries.
	tmp, err := os.MkdirTemp(binDir(), "soxbench")
	if err != nil {
		fatal(err)
	}
	e := &env{soxqd: soxqd, tmp: tmp, nproc: runtime.NumCPU()}
	rep := &report{
		Workload: w.name, Why: w.why, Op: w.op, Traced: *trace != 0, Seed: *seed, Seconds: *seconds, Ops: w.opsFor(*seconds), Size: 1,
		Frozen: frozen(), Nproc: e.nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
		Metrics: newMetricSet(), Extras: newMetricSet(),
	}
	var spans []span
	if rep.Traced {
		spans, err = runTraced(w, e, rep)
	} else {
		err = runEndToEnd(w, e, rep)
	}
	os.RemoveAll(tmp)
	if err != nil {
		fatal(err)
	}
	rep.print()
	if *out != "" {
		if err := rep.write(*out, spans); err != nil {
			fatal(err)
		}
	}
	last, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, driverMetrics(rep.Metrics.m)})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
}

// driverMetrics drops the sample counts: the result line carries exactly a
// value and a unit per metric.
func driverMetrics(m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		out[k] = metric{Value: v.Value, Unit: v.Unit}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soxbench:", err)
	os.Exit(1)
}

// binDir is where run.sh put the harness and soxqd: .bench_build in the
// checkout.
func binDir() string {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	return filepath.Dir(exe)
}

func frozen() map[string]any {
	counts := map[string]int{}
	for _, w := range workloads {
		counts[w.name] = w.ops
	}
	return map[string]any{
		"run_seconds": runSeconds, "ops": counts, "fig6_scale": fig6Scale,
		"corpus":   []int{corpusDocs, corpusScenes, corpusHits},
		"mixed":    []int{mixedDocs, mixedScenes, mixedHits, mixedHot, mixedCached, mixedClients},
		"annotate": []int{annotateScenes, annotateHits, burstInserts, burstDeletes, deleteLag, pinEvery},
	}
}

func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// finish folds the op loop's counts and the output check into the report. A
// loop the deadline cut short did less work than the run it is compared with:
// the operations it left out count as failed.
func (r *report) finish(s *samples, verifyErr error) {
	r.Attempted, r.Failed = s.attempted+1, s.failed
	r.OpsSkipped = s.skipped
	err := s.firstErr
	if s.skipped > 0 {
		r.Attempted += s.skipped
		r.Failed += s.skipped
		err = fmt.Errorf("deadline: %d of the run's operations were not performed", s.skipped)
	}
	if verifyErr != nil {
		r.Failed++
		err = verifyErr
	}
	if err != nil {
		r.FirstError = err.Error()
	}
	r.Correct = r.Failed == 0
	r.Extras.set("fail_ratio", ratio(float64(r.Failed), float64(r.Attempted)), "ratio", r.Attempted)
	names := make([]string, 0, len(s.extra))
	for name := range s.extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs := millis(s.extra[name])
		r.Extras.set(name+"_p50_ms", median(xs), "ms", len(xs))
		for _, p := range []float64{95, 99} {
			if v, err := percentile(xs, p); err == nil {
				r.Extras.set(fmt.Sprintf("%s_p%g_ms", name, p), v, "ms", len(xs))
			}
		}
	}
}

// runEndToEnd measures the end-to-end metrics, tracing off.
func runEndToEnd(w *workload, e *env, rep *report) error {
	var inst instance
	var setups []float64
	begin := time.Now()
	for len(setups) < minSetups || (len(setups) < maxSetups && time.Since(begin) < setupBudget) {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
			inst = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if _, inst, err = w.setUp(e, rep.Seed, rep.Size); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	verifyErr := inst.verify()
	debug.FreeOSMemory() // the harness's own set-up garbage is not the workload's memory
	rssSamples := sampleRSS(inst.pid())
	s, err := inst.run(rep.Ops, false, deadlineFor(rep.Seconds))
	rss, rssErr := rssSamples.peakMB()
	if err == nil {
		err = rssErr
	}
	hwm, hwmErr := statusMB(inst.pid(), "VmHWM") // before the server is told to stop
	if err == nil {
		err = hwmErr
	}
	if err != nil {
		inst.close()
		return err
	}
	if err := inst.close(); err != nil {
		return err
	}
	rep.finish(s, verifyErr)

	q := millis(s.query)
	p95, err := percentile(q, 95)
	if err != nil {
		return fmt.Errorf("%s: query_p95_ms: %w", w.name, err)
	}
	m := rep.Metrics
	m.set("setup_s", median(setups), "s", len(setups))
	m.set("query_p50_ms", median(q), "ms", len(q))
	m.set("query_p95_ms", p95, "ms", len(q))
	m.set("ttfr_p50_ms", median(millis(s.ttfr)), "ms", len(s.ttfr))
	m.set("ops_per_s", ratio(float64(len(q)), s.wall.Seconds()), "1/s", len(q))
	m.set("peak_rss_mb", rss, "MB", 1)
	rep.Extras.set("vmhwm_mb", hwm, "MB", 1)
	return m.check()
}

// deadlineFor stops an op loop that takes several times its calibrated
// length, so that even then the run ends inside the driver's limit of 180 s.
// Such a run is reported as incorrect (report.finish).
func deadlineFor(seconds float64) time.Time {
	return time.Now().Add(time.Duration(max(6*seconds, 30) * float64(time.Second)))
}

// runTraced measures the per-layer metrics: half the op loop in alternating
// traced and untraced blocks, then the layer probes on the same inputs.
func runTraced(w *workload, e *env, rep *report) ([]span, error) {
	fx, inst, err := w.setUp(e, rep.Seed, rep.Size)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	small, err := w.gen(rep.Seed, rep.Size/10)
	if err != nil {
		return nil, err
	}
	// Every traced run has a server over the workload's documents: the one
	// the workload drives, or one started for the probes.
	var srv *serverProc
	if h, ok := inst.(interface{ server() *serverProc }); ok {
		srv = h.server()
	} else {
		sv, err := startServed(fx, e)
		if err != nil {
			return nil, err
		}
		defer sv.close()
		srv = sv.srv
	}
	verifyErr := inst.verify()
	before, err := serverCounters(srv)
	if err != nil {
		return nil, err
	}
	s, err := inst.run(max(rep.Ops/2, 8*traceBlock), true, deadlineFor(rep.Seconds))
	if err != nil {
		return nil, err
	}
	rep.finish(s, verifyErr)

	m := rep.Metrics
	m.set("bench.trace_overhead_pct", 100*traceOverhead(s), "%", len(s.query))
	if len(s.spans) > 0 {
		rep.OpTable = layerTable(s.spans, s.spans[0].Name)
	}

	ptr := newTracer()
	budget := time.Duration(float64(probeBudget) * min(1, rep.Size)) // tests run tiny inputs, briefly
	rep.LayerTable, err = layerProbes(ptr, budget, fx, small, srv, e.nproc, m)
	if err != nil {
		return nil, fmt.Errorf("%s: layer probes: %w", w.name, err)
	}
	after, err := serverCounters(srv)
	if err != nil {
		return nil, err
	}
	cacheMetrics(before, after, m)
	if err := srv.alive(); err != nil {
		return nil, err
	}
	return appendSpans(s.spans, ptr.spans), m.check()
}

func (s *served) server() *serverProc { return s.srv }

// traceOverhead is the tracing overhead on the primary latency, as a share
// of the untraced median. Each traced operation is held against the untraced
// operation one block before it and the one a block after it; the median of
// those differences is 0 for equal distributions, whatever their shape, and
// a latency that grows through the run enters once with each sign.
func traceOverhead(s *samples) float64 {
	var diffs, off []float64
	for i, d := range s.query {
		if !s.traced[i] {
			off = append(off, float64(d))
			continue
		}
		for _, j := range []int{i - traceBlock, i + traceBlock} {
			if j >= 0 && j < len(s.query) && !s.traced[j] {
				diffs = append(diffs, float64(d-s.query[j]))
			}
		}
	}
	return ratio(median(diffs), median(off))
}

// print writes the run as tables: every metric by name, unit and sample
// count, then the workload's extras and, for a traced run, where the time
// of an operation and of the primary request went.
func (r *report) print() {
	mode := "end to end, tracing off"
	if r.Traced {
		mode = "traced run, per layer"
	}
	fmt.Printf("== %s (%s) seed %d, %d ops (%s), size %g, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		r.Workload, mode, r.Seed, r.Ops, r.Op, r.Size, r.Nproc, r.GOMAXPROCS, r.Go, r.Commit)
	fmt.Printf("   correct %v, attempted %d, failed %d %s\n", r.Correct, r.Attempted, r.Failed, r.FirstError)
	printSet := func(s *metricSet) {
		for _, name := range s.names {
			m := s.m[name]
			fmt.Printf("   %-34s %14.4f %-8s n=%d\n", name, m.Value, m.Unit, m.Samples)
		}
	}
	printSet(r.Metrics)
	if len(r.Extras.names) > 0 {
		fmt.Println("   -- workload detail (not gated)")
		printSet(r.Extras)
	}
	printTable := func(title string, rows []layerRow) {
		if len(rows) == 0 {
			return
		}
		fmt.Printf("   -- %s\n   %-58s %12s %8s\n", title, "layer", "self ms", "share")
		for _, row := range rows {
			fmt.Printf("   %-58s %12.4f %7.1f%%\n", row.Layer, row.SelfMS, 100*row.Share)
		}
	}
	printTable("one operation, by harness span (self time, summed over the traced operations)", r.OpTable)
	printTable("the primary request, layer by layer (median passes, share of the HTTP request)", r.LayerTable)
	if len(r.LayerTable) > 0 {
		top := r.LayerTable[0]
		for _, row := range r.LayerTable {
			if row.SelfMS > top.SelfMS {
				top = row
			}
		}
		fmt.Printf("   slowest layer of the primary request: %s\n", top.Layer)
	}
}

func (r *report) write(dir string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := r.Workload + ".json"
	if r.Traced {
		name = r.Workload + "-layers.json"
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Traced {
		return nil
	}
	data, err = json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{r.Workload, r.Seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+r.Workload+".json"), data, 0o644)
}

// child re-executes the harness for one workload, so peak RSS, GC state and
// arena pools never carry over, and returns the result line it printed.
func child(args []string, echo bool) (map[string]metric, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if echo {
		os.Stdout.Write(outBytes)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var res struct {
		Correct bool
		Failed  int
		Metrics map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return res.Metrics, errors.New(strings.Join(args, " ") + ": output check failed")
	}
	return res.Metrics, nil
}

func childArgs(w string, seed uint64, seconds float64, trace int) []string {
	return []string{"-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
}

// runAll runs every workload end to end and traced, one process each.
func runAll(seed uint64, seconds float64, out string) int {
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			args := childArgs(w.name, seed, seconds, trace)
			if out != "" {
				args = append(args, "-out", out)
			}
			if _, err := child(args, true); err != nil {
				fmt.Fprintln(os.Stderr, "soxbench:", err)
				code = 1
			}
		}
	}
	return code
}
