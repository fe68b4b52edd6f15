package main

import (
	"fmt"
	"time"
)

// Frozen sizes. Op counts are fixed, not durations, so both sides of a
// comparison do identical work; they were calibrated at the commit that
// added the benchmark so that the timed phase of each workload takes about
// runSeconds on two cores, and never holds fewer than 200 latency samples
// (see README.md, "Calibration").
const (
	runSeconds = 15 // BENCHMARK.json run_seconds, which the op counts fit

	fig6Scale = 0.5 // XMark factor; the paper's "55MB" column (README: why not 1.0)

	corpusDocs, corpusScenes, corpusHits = 8, 250, 60

	mixedDocs, mixedScenes, mixedHits = 8, 20, 10
	mixedHot, mixedCached             = 64, 8
	mixedClients                      = 2

	annotateScenes, annotateHits = 2000, 60
	annotateWidth                = 200
	burstInserts, burstDeletes   = 64, 8
	deleteLag, pinEvery          = 4, 10
	markStride                   = 1000003

	// traceBlock is how many consecutive operations of a traced run share a
	// tracing state: blocks alternate traced and untraced, so the two halves
	// see the same drift and their difference is the tracing overhead. Three
	// is short against the machine's drift and does not line up with pinEvery.
	traceBlock = 3
)

// env is where a workload runs.
type env struct {
	soxqd string // path of the built server
	tmp   string // scratch directory, removed on exit
	nproc int
}

// workload is one benchmark scenario: a seeded generator, a way to bring the
// program under test up on its output, and a fixed number of operations.
type workload struct {
	name, why string
	ops       int    // operations per run at runSeconds
	op        string // what one operation is
	gen       func(seed uint64, size float64) (*fixture, error)
	start     func(fx *fixture, e *env, seed uint64) (instance, error)
}

// instance is a started workload: documents loaded, server up, caches warm.
type instance interface {
	// run performs n operations in the workload's closed loop, stopping
	// early only past the deadline (samples.skipped). With traced set,
	// alternating blocks of operations record spans. A returned error aborts
	// the run; operations that merely fail are counted in the samples.
	run(n int, traced bool, deadline time.Time) (*samples, error)
	// verify checks the program's output against an independent computation
	// (another strategy, the in-process engine, the generator's own count).
	// It runs once per process, outside set-up and timing.
	verify() error
	// pid is the process under test: soxqd, or the harness itself.
	pid() int
	close() error
}

// samples is what one run of the op loop measured.
type samples struct {
	query  []time.Duration // per operation: the read, start to last row
	ttfr   []time.Duration // per operation: start to first row
	traced []bool          // per operation: recorded under spans
	wall   time.Duration
	// attempted and failed count single operations of the program (one Exec,
	// one request, one mutation, one drain), of which an op may hold many.
	attempted, failed int
	firstErr          error
	// skipped is how many of the n operations asked for the deadline left out.
	skipped int
	extra   map[string][]time.Duration // workload-specific series
	spans   []span
}

func (s *samples) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

func (s *samples) add(series string, d time.Duration) {
	if s.extra == nil {
		s.extra = map[string][]time.Duration{}
	}
	s.extra[series] = append(s.extra[series], d)
}

var workloads = []workload{
	{
		name: "fig6-xmark",
		why:  "the paper's Fig. 6: XMark Q1/Q2/Q6/Q7 in stand-off form, in process; join kernel, loop-lifted evaluation and strategy choice do the work, serialisation and HTTP none",
		ops:  270, op: "sweep of Q1,Q2,Q6,Q7 (Prepared.Exec, auto mode)",
		gen: genFig6, start: startFig6,
	},
	{
		name: "corpus-stream",
		why:  "one soxqd request over the 122k-region corpus, 120000 NDJSON rows streamed to one client; row serialisation, JSON framing and the HTTP write dominate",
		ops:  200, op: "GET /query over corpus bench, every line read",
		gen: genCorpus, start: startCorpus,
	},
	{
		name: "small-mixed",
		why:  "same server, opposite regime: two clients send many tiny queries (hot, never-repeated and result-cached texts); parse, compile, plan cache and per-request HTTP cost dominate",
		ops:  30000, op: "GET /query per client, <=100 rows",
		gen: genMixed, start: startMixed,
	},
	{
		name: "annotate-burst",
		why:  "writes beside reads on one 122k-region document: bursts of 64 inserts + 8 deletes, then a drain of the layer just written; delta layers, auto-compaction and pinned snapshots",
		ops:  240, op: "cycle: 72-mutation burst + read-after-write drain",
		gen: genAnnotate, start: startAnnotate,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// opsFor scales the frozen op count to the requested run length.
func (w *workload) opsFor(seconds float64) int {
	return max(1, int(float64(w.ops)*seconds/runSeconds+0.5))
}

// setUp generates the inputs and starts the workload on them: the work
// setup_s measures.
func (w *workload) setUp(e *env, seed uint64, size float64) (*fixture, instance, error) {
	fx, err := w.gen(seed, size)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: generate: %w", w.name, err)
	}
	inst, err := w.start(fx, e, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: start: %w", w.name, err)
	}
	return fx, inst, nil
}
