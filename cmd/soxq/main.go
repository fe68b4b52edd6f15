// Command soxq runs XQuery with stand-off annotation support from the
// command line:
//
//	soxq -doc sample.xml=testdata/sample.xml \
//	     -q 'doc("sample.xml")//music/select-wide::shot'
//
//	soxq -doc fs.xml=image.xml -blob fs.xml=disk.img \
//	     -declare standoff-region=region \
//	     -f query.xq -mode basic
//
// Documents are registered under the name given before '='; queries address
// them with fn:doc. -mode selects the join algorithm: auto (the default,
// Loop-Lifted), looplifted, or one of the paper's baselines (basic, udf).
// -explain executes the query and prints the compiled plan — the operator
// tree (FLWOR, filter and path structure) with per-step candidate policies,
// plus which pipeline operators stream — instead of the query results.
// -analyze is EXPLAIN ANALYZE: the same tree annotated with the observed
// per-operator counters of the run (rows in/out, candidates scanned, join
// algorithm, FLWOR tuples and chunks). See docs/EXPLAIN.md for the output
// reference.
//
// -stream serialises results through the cursor pipeline as they are
// produced instead of materialising the full sequence first (constant
// memory for arbitrarily large results); -stream-chunk N sets the tuples
// evaluated per pipeline chunk (the memory/amortisation trade-off: StandOff
// final steps join per chunk of context areas and nested for clauses bind
// child cursors, so the bound compounds through nested loops).
//
// -mutate FILE applies a scripted sequence of annotation writes after the
// documents are loaded and before the query runs. The script holds one
// operation per line ('#' comments and blank lines skipped):
//
//	insert <doc> <elem> <start> <end> [<start> <end> ...]
//	delete <doc> <elem> <start> <end>
//	compact <doc>
//
// Positions are written in the engine's configured standoff-type (so a
// dateTime corpus takes RFC 3339 values). Multiple start/end pairs on an
// insert write a multi-region area (requires standoff-region).
//
// -trace executes the query with lifecycle tracing and prints the recorded
// span tree — parse, compile, and the executed operator
// tree with per-operator row/chunk counts that line up with -analyze output —
// instead of the results; -trace-durations adds the measured wall-clock
// numbers. -ops ADDR serves the engine's ops HTTP surface (/metrics in
// Prometheus text, /debug/vars, /debug/queries) after the query, for
// scraping a long-lived session. See docs/OBSERVABILITY.md.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"soxq"
	"soxq/internal/blob"
	"soxq/internal/httpserve"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var docs, blobs, declares repeated
	flag.Var(&docs, "doc", "load a document: name=path (repeatable)")
	flag.Var(&blobs, "blob", "attach a BLOB to a document: name=path (repeatable)")
	flag.Var(&declares, "declare", "engine-wide stand-off option: option=value (repeatable)")
	query := flag.String("q", "", "query text")
	queryFile := flag.String("f", "", "file containing the query")
	mode := flag.String("mode", "auto", "execution mode: auto, looplifted, basic or udf")
	noPushdown := flag.Bool("no-pushdown", false, "disable candidate-sequence pushdown")
	timing := flag.Bool("time", false, "print load and evaluation timing to stderr")
	explain := flag.Bool("explain", false, "print the compiled plan instead of results")
	analyze := flag.Bool("analyze", false, "run the query and print the plan annotated with observed per-operator counters (EXPLAIN ANALYZE)")
	stream := flag.Bool("stream", false, "stream results through the cursor pipeline instead of materialising them")
	streamChunk := flag.Int("stream-chunk", 0, "tuples (and StandOff context areas) per pipeline chunk (0 = default 1024)")
	trace := flag.Bool("trace", false, "run the query with lifecycle tracing and print the span tree (parse/compile/execute with per-operator counts) after the results")
	traceDurations := flag.Bool("trace-durations", false, "include measured durations and timestamps in the -trace rendering (non-deterministic output)")
	ops := flag.String("ops", "", "serve the ops HTTP surface (/metrics, /debug/vars, /debug/queries) on this address, e.g. :6060, and wait for interrupt after the query")
	mutate := flag.String("mutate", "", "apply a scripted annotation mutation file (insert/delete/compact lines) before running the query")
	flag.Parse()

	if (*query == "") == (*queryFile == "") {
		fatal("exactly one of -q or -f is required")
	}
	q := *query
	if *queryFile != "" {
		data, err := os.ReadFile(*queryFile)
		fatalIf(err)
		q = string(data)
	}
	cfg := soxq.Config{NoPushdown: *noPushdown, StreamChunk: *streamChunk, Trace: *trace || *traceDurations}
	switch *mode {
	case "auto":
		cfg.Mode = soxq.ModeAuto
	case "looplifted":
		cfg.Mode = soxq.ModeLoopLifted
	case "basic":
		cfg.Mode = soxq.ModeBasic
	case "udf":
		cfg.Mode = soxq.ModeUDF
	default:
		fatal("unknown -mode %q", *mode)
	}

	eng := soxq.New()
	for _, d := range declares {
		opt, val, ok := strings.Cut(d, "=")
		if !ok {
			fatal("-declare wants option=value, got %q", d)
		}
		fatalIf(eng.Declare(opt, val))
	}
	loadStart := time.Now()
	for _, spec := range docs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("-doc wants name=path, got %q", spec)
		}
		fatalIf(eng.LoadXMLFile(name, path))
	}
	for _, spec := range blobs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("-blob wants name=path, got %q", spec)
		}
		store, err := blob.OpenFile(path)
		fatalIf(err)
		defer store.Close()
		eng.SetBlob(name, store)
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "load: %v\n", time.Since(loadStart))
	}
	if *mutate != "" {
		mutStart := time.Now()
		n, err := applyMutations(eng, *mutate)
		fatalIf(err)
		if *timing {
			fmt.Fprintf(os.Stderr, "mutate: %d ops in %v\n", n, time.Since(mutStart))
		}
	}

	// The pipeline is parse -> compile -> execute: Prepare covers the first
	// two stages, Exec the third, so -time reports them separately.
	compileStart := time.Now()
	prep, err := eng.Prepare(q)
	fatalIf(err)
	if *timing {
		fmt.Fprintf(os.Stderr, "compile: %v\n", time.Since(compileStart))
	}
	evalStart := time.Now()
	if *analyze {
		// EXPLAIN ANALYZE: execute, then print the plan annotated with the
		// run's observed per-operator counters.
		_, pe, err := prep.Analyze(cfg)
		fatalIf(err)
		if *timing {
			fmt.Fprintf(os.Stderr, "eval: %v\n", time.Since(evalStart))
		}
		fmt.Print(pe.String())
		serveOps(eng, *ops)
		return
	}
	if cfg.Trace && !*explain && !*stream {
		// -trace mirrors -explain/-analyze: execute, then print the recorded
		// span tree instead of the results. Without -trace-durations the
		// rendering is deterministic (structure and counts only), so its
		// per-operator numbers line up with -analyze output for the same
		// query.
		_, err := prep.Exec(cfg)
		fatalIf(err)
		if *timing {
			fmt.Fprintf(os.Stderr, "eval: %v\n", time.Since(evalStart))
		}
		fmt.Print(prep.TraceLast().Render(*traceDurations))
		serveOps(eng, *ops)
		return
	}
	if *stream && !*explain {
		// Streamed execution: items are serialised as the pipeline
		// produces them, so memory stays bounded by the chunk size no
		// matter the result cardinality.
		cur, err := prep.Stream(cfg)
		fatalIf(err)
		w := bufio.NewWriter(os.Stdout)
		var rows []byte
		for k := 1; k > 0; {
			rows, k = cur.AppendRows(rows[:0], 64, math.MaxInt, false, "", "\n")
			w.Write(rows) // a write error sticks; Flush reports it
		}
		fatalIf(cur.Close())
		fatalIf(w.Flush())
		if *timing {
			fmt.Fprintf(os.Stderr, "eval: %v\n", time.Since(evalStart))
		}
		if cfg.Trace {
			fmt.Print(prep.TraceLast().Render(*traceDurations))
		}
		serveOps(eng, *ops)
		return
	}
	res, err := prep.Exec(cfg)
	fatalIf(err)
	if *timing {
		fmt.Fprintf(os.Stderr, "eval: %v\n", time.Since(evalStart))
	}
	if *explain {
		fmt.Print(prep.Explain().String())
		return
	}
	for _, v := range res.Values() {
		fmt.Println(v.XML())
	}
	serveOps(eng, *ops)
}

// serveOps blocks serving the engine's ops HTTP surface when -ops was given;
// with the flag unset it is a no-op and the command exits as usual. The
// server carries read/header/idle timeouts and an interrupt (or SIGTERM)
// triggers a graceful drain — an in-flight scrape finishes before the
// process exits, instead of dying mid-response.
func serveOps(eng *soxq.Engine, addr string) {
	if addr == "" {
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "soxq: serving /metrics, /debug/vars, /debug/queries on %s (interrupt to stop)\n", addr)
	// Ops responses are bounded renderings, so a write timeout is safe here
	// (soxqd, which streams query results, leaves it unset).
	fatalIf(httpserve.ListenAndServe(ctx, addr, eng.OpsHandler(), httpserve.Options{
		WriteTimeout: time.Minute,
	}))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "soxq: "+format+"\n", args...)
	os.Exit(1)
}

func fatalIf(err error) {
	if err != nil {
		fatal("%v", err)
	}
}
