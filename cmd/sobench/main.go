// Command sobench reproduces Figure 6 of the paper: the StandOff XMark
// queries 1, 2, 6 and 7 over document sizes 11 MB … 1100 MB, comparing the
// three implementation strategies
//
//	udf         "XQuery Function with Candidate Sequence" (nested loop)
//	udf-nocand  the same without a candidate sequence (the all-DNF variant)
//	basic       Basic StandOff MergeJoin (one merge per iteration)
//	looplifted  Loop-Lifted StandOff MergeJoin (the paper's contribution)
//
// Example (the paper's full sweep is -scales 0.1,0.5,1,5,10):
//
//	sobench -scales 0.1,0.5,1 -timeout 300 -dir /tmp/soxq-bench
//
// Each measurement runs in a subprocess so that a timed-out cell can be
// killed cleanly (the paper's DNF, there with a one-hour budget). Data files
// are generated once per scale and reused.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"soxq"
	"soxq/internal/xmark"
	"soxq/internal/xmlparse"
)

var paperScaleNames = map[string]string{
	"0.1": "11MB", "0.5": "55MB", "1": "110MB", "5": "550MB", "10": "1100MB",
}

func main() {
	scales := flag.String("scales", "0.1,0.5,1", "comma-separated XMark scale factors")
	queries := flag.String("queries", "1,2,6,7", "comma-separated XMark query numbers")
	variants := flag.String("variants", "udf,basic,looplifted", "comma-separated variants (udf,udf-nocand,basic,looplifted,auto,stream)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-cell budget before declaring DNF (paper: 1h)")
	dir := flag.String("dir", "soxq-bench-data", "directory for generated data files")
	seed := flag.Uint64("seed", 42, "generator seed")
	csvPath := flag.String("csv", "", "also write results as CSV to this file")
	prepare := flag.Bool("prepare", false,
		"prepare each query before timing so cells measure pure execution (excludes parse+compile)")
	analyze := flag.Bool("analyze", false,
		"print per-step observed cardinalities and join algorithms (EXPLAIN ANALYZE, default mode) instead of the timing grid")
	streamChunk := flag.Int("stream-chunk", 0,
		"tuples (and StandOff context areas) per pipeline chunk for the stream variant (0 = default 1024)")
	cpuProfile := flag.String("cpuprofile", "",
		"write a CPU profile of each cell's measured run to this path plus a .qN.variant suffix")
	memProfile := flag.String("memprofile", "",
		"write a post-run heap profile of each cell to this path plus a .qN.variant suffix")
	metrics := flag.Bool("metrics", false,
		"dump each cell engine's metrics registry (Prometheus text: join counts, latency histograms, cache and pool counters) to stderr after the run")
	mutateN := flag.Int("mutate", 0,
		"insert this many annotations into each cell's document after index build, so cells measure queries over LSM delta layers instead of a pristine index")

	// Internal flags for the subprocess cell runner.
	cellDoc := flag.String("run-cell-doc", "", "internal: stand-off document path")
	cellQuery := flag.Int("run-cell-query", 0, "internal: query number")
	cellVariant := flag.String("run-cell-variant", "", "internal: variant name")
	flag.Parse()

	if *cellDoc != "" {
		runCell(*cellDoc, *cellQuery, *cellVariant, *prepare, *streamChunk, *mutateN, *cpuProfile, *memProfile, *metrics)
		return
	}

	scaleList := splitFloats(*scales)
	queryList := splitInts(*queries)
	variantList := strings.Split(*variants, ",")

	if *analyze {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			fatal("%v", err)
		}
		runAnalyze(*dir, scaleList, queryList, *seed)
		return
	}

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal("%v", err)
	}
	type key struct {
		scale   float64
		query   int
		variant string
	}
	results := map[key]string{}

	for _, scale := range scaleList {
		soPath, err := ensureData(*dir, scale, *seed)
		if err != nil {
			fatal("generating scale %g: %v", scale, err)
		}
		for _, q := range queryList {
			for _, variant := range variantList {
				secs, ok := runCellSubprocess(soPath, q, variant, *timeout, *prepare, *streamChunk, *mutateN, *cpuProfile, *memProfile, *metrics)
				k := key{scale, q, variant}
				if !ok {
					results[k] = "DNF"
					fmt.Fprintf(os.Stderr, "scale %g Q%d %-10s DNF (> %v)\n", scale, q, variant, *timeout)
				} else {
					results[k] = fmt.Sprintf("%.3f", secs)
					fmt.Fprintf(os.Stderr, "scale %g Q%d %-10s %8.3fs\n", scale, q, variant, secs)
				}
			}
		}
	}

	// Paper-style output: one block per query, variants as rows, sizes as
	// columns (Figure 6 shows the same grid as four log-scale plots).
	var csv strings.Builder
	csv.WriteString("query,variant,scale,size,seconds\n")
	for _, q := range queryList {
		fmt.Printf("\nStandOff XMark Q%d (seconds; DNF = did not finish within %v)\n", q, *timeout)
		fmt.Printf("%-34s", "variant \\ size")
		for _, s := range scaleList {
			fmt.Printf("%12s", sizeName(s))
		}
		fmt.Println()
		for _, variant := range variantList {
			fmt.Printf("%-34s", variantLabel(variant))
			for _, s := range scaleList {
				cell := results[key{s, q, variant}]
				fmt.Printf("%12s", cell)
				fmt.Fprintf(&csv, "%d,%s,%g,%s,%s\n", q, variant, s, sizeName(s), cell)
			}
			fmt.Println()
		}
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(csv.String()), 0o644); err != nil {
			fatal("writing CSV: %v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}

func variantLabel(v string) string {
	switch v {
	case "udf":
		return "XQuery Function w/ Candidate Seq."
	case "udf-nocand":
		return "XQuery Function (no candidates)"
	case "basic":
		return "Basic StandOff MergeJoin"
	case "looplifted":
		return "Loop-Lifted StandOff MergeJoin"
	case "auto":
		return "Default Mode (auto = loop-lifted)"
	case "stream":
		return "Streamed Cursor Pipeline"
	}
	return v
}

func sizeName(scale float64) string {
	s := strconv.FormatFloat(scale, 'g', -1, 64)
	if n, ok := paperScaleNames[s]; ok {
		return n
	}
	return s + "x"
}

// ensureData generates (once) the stand-off XMark files for a scale and
// returns the stand-off document path.
func ensureData(dir string, scale float64, seed uint64) (string, error) {
	base := filepath.Join(dir, fmt.Sprintf("xmark-%s", strconv.FormatFloat(scale, 'g', -1, 64)))
	soPath := base + ".standoff.xml"
	if _, err := os.Stat(soPath); err == nil {
		return soPath, nil
	}
	fmt.Fprintf(os.Stderr, "generating %s (scale %g)...\n", soPath, scale)
	plain := base + ".xml"
	f, err := os.Create(plain)
	if err != nil {
		return "", err
	}
	if err := xmark.Generate(f, xmark.Config{Scale: scale, Seed: seed}); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	doc, err := xmlparse.ParseFile(plain)
	if err != nil {
		return "", err
	}
	cfg := xmark.DefaultStandOffConfig()
	cfg.Seed = seed
	res, err := xmark.StandOffize(doc, cfg)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(soPath, res.XML, 0o644); err != nil {
		return "", err
	}
	return soPath, os.WriteFile(base+".blob", res.Blob, 0o644)
}

// runCellSubprocess executes one measurement in a child process and kills it
// at the timeout (DNF).
func runCellSubprocess(soPath string, q int, variant string, timeout time.Duration, prepare bool, streamChunk, mutateN int, cpuProfile, memProfile string, metrics bool) (float64, bool) {
	args := []string{
		"-run-cell-doc", soPath,
		"-run-cell-query", strconv.Itoa(q),
		"-run-cell-variant", variant,
	}
	if prepare {
		args = append(args, "-prepare")
	}
	if streamChunk > 0 {
		args = append(args, "-stream-chunk", strconv.Itoa(streamChunk))
	}
	if mutateN > 0 {
		args = append(args, "-mutate", strconv.Itoa(mutateN))
	}
	// Profiles go to one file per cell — a shared path would be overwritten
	// by every later cell of the grid.
	if cpuProfile != "" {
		args = append(args, "-cpuprofile", cellProfilePath(cpuProfile, q, variant))
	}
	if memProfile != "" {
		args = append(args, "-memprofile", cellProfilePath(memProfile, q, variant))
	}
	if metrics {
		args = append(args, "-metrics")
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		fatal("%v", err)
	}
	if err := cmd.Start(); err != nil {
		fatal("%v", err)
	}
	done := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		var last string
		for sc.Scan() {
			last = sc.Text()
		}
		done <- last
	}()
	timer := time.AfterFunc(timeout, func() { _ = cmd.Process.Kill() })
	last := <-done
	waitErr := cmd.Wait()
	timedOut := !timer.Stop()
	if timedOut || waitErr != nil || !strings.HasPrefix(last, "seconds=") {
		return 0, false
	}
	secs, err := strconv.ParseFloat(strings.TrimPrefix(last, "seconds="), 64)
	if err != nil {
		return 0, false
	}
	return secs, true
}

// runCell is the subprocess body: load the document, build the index, run
// the query once, print the evaluation seconds. With prepare set, the query
// is compiled before the clock starts, so the cell times the join strategy
// alone (the paper-figure mode); otherwise the cell includes parse+compile,
// matching the pre-pipeline measurements.
// cellProfilePath derives the per-cell profile filename.
func cellProfilePath(base string, q int, variant string) string {
	return fmt.Sprintf("%s.q%d.%s", base, q, variant)
}

func runCell(soPath string, q int, variant string, prepare bool, streamChunk, mutateN int, cpuProfile, memProfile string, metrics bool) {
	cfg := soxq.Config{StreamChunk: streamChunk}
	streamed := false
	switch variant {
	case "auto":
		cfg.Mode = soxq.ModeAuto
	case "udf":
		cfg.Mode = soxq.ModeUDF
	case "udf-nocand":
		cfg.Mode = soxq.ModeUDF
		cfg.NoPushdown = true
	case "basic":
		cfg.Mode = soxq.ModeBasic
	case "looplifted":
		cfg.Mode = soxq.ModeLoopLifted
	case "stream":
		// Drain the query through the cursor pipeline: same loop-lifted
		// joins, bounded-memory execution.
		streamed = true
	default:
		fatal("unknown variant %q", variant)
	}
	eng := soxq.New()
	if err := eng.LoadXMLFile("doc.xml", soPath); err != nil {
		fatal("%v", err)
	}
	if err := eng.BuildIndex("doc.xml"); err != nil {
		fatal("%v", err)
	}
	// With -mutate, land deterministic annotation inserts on the built index
	// so the measured query runs over pending LSM delta layers (the engine
	// still auto-compacts at its threshold, as production writers would).
	rng := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < mutateN; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		start := int64(rng>>33) % 1_000_000
		if err := eng.InsertAnnotation("doc.xml", "bench-delta", soxq.Region{Start: start, End: start + 64}); err != nil {
			fatal("%v", err)
		}
	}
	query := xmark.StandOffQuery(q, "doc.xml")
	run := func(prep *soxq.Prepared) (int, error) {
		if streamed {
			cur, err := prep.Stream(cfg)
			if err != nil {
				return 0, err
			}
			n := 0
			for cur.Next() {
				n++
			}
			return n, cur.Close()
		}
		res, err := prep.Exec(cfg)
		if err != nil {
			return 0, err
		}
		return res.Len(), nil
	}
	// With -prepare the clock starts after parse+compile (the paper-figure
	// mode, measuring the join strategy alone); without it the cell pays
	// the whole pipeline, matching the pre-pipeline measurements.
	var prep *soxq.Prepared
	var err error
	start := time.Now()
	if prepare {
		if prep, err = eng.Prepare(query); err != nil {
			fatal("Q%d (%s): %v", q, variant, err)
		}
		start = time.Now()
	} else if prep, err = eng.Prepare(query); err != nil {
		fatal("Q%d (%s): %v", q, variant, err)
	}
	// The CPU profile covers exactly the timed region; the heap profile is
	// taken right after it (post-GC), so it shows what the run left live —
	// retained pipeline state, not transient garbage.
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fatal("%v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("starting CPU profile: %v", err)
		}
		defer f.Close()
	}
	items, err := run(prep)
	if err != nil {
		fatal("Q%d (%s): %v", q, variant, err)
	}
	secs := time.Since(start).Seconds()
	if cpuProfile != "" {
		pprof.StopCPUProfile()
		fmt.Fprintf(os.Stderr, "  [cell] wrote CPU profile %s\n", cpuProfile)
	}
	if memProfile != "" {
		f, err := os.Create(memProfile)
		if err != nil {
			fatal("%v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal("writing heap profile: %v", err)
		}
		f.Close()
		fmt.Fprintf(os.Stderr, "  [cell] wrote heap profile %s\n", memProfile)
	}
	fmt.Fprintf(os.Stderr, "  [cell] Q%d %s: %d items in %.3fs\n", q, variant, items, secs)
	if metrics {
		// The registry dump shows what the cell actually did — which join
		// algorithm ran and how often, the latency histogram of the mode,
		// arena pool and plan-cache behaviour — next to the wall-clock
		// number the grid reports.
		fmt.Fprintf(os.Stderr, "  [cell] Q%d %s metrics:\n", q, variant)
		if err := eng.WriteMetrics(os.Stderr); err != nil {
			fatal("dumping metrics: %v", err)
		}
	}
	fmt.Printf("seconds=%.6f\n", secs)
}

// runAnalyze prints the EXPLAIN ANALYZE cardinality table: one row per
// StandOff step of each query, with the join algorithms that ran and the
// observed candidates, context rows and output rows of a default-mode run.
func runAnalyze(dir string, scales []float64, queries []int, seed uint64) {
	for _, scale := range scales {
		soPath, err := ensureData(dir, scale, seed)
		if err != nil {
			fatal("generating scale %g: %v", scale, err)
		}
		eng := soxq.New()
		if err := eng.LoadXMLFile("doc.xml", soPath); err != nil {
			fatal("%v", err)
		}
		if err := eng.BuildIndex("doc.xml"); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("\nEXPLAIN ANALYZE cardinalities, scale %g (%s)\n", scale, sizeName(scale))
		fmt.Printf("%-6s %-34s %-16s %10s %10s %10s\n",
			"query", "step", "joins", "obs.cand", "ctx.rows", "rows.out")
		for _, q := range queries {
			prep, err := eng.Prepare(xmark.StandOffQuery(q, "doc.xml"))
			if err != nil {
				fatal("Q%d: %v", q, err)
			}
			_, pe, err := prep.Analyze(soxq.Config{})
			if err != nil {
				fatal("Q%d: %v", q, err)
			}
			for _, row := range standOffRows(pe.Plan) {
				fmt.Printf("%-6s %-34s %-16s %10d %10d %10d\n",
					fmt.Sprintf("Q%d", q), row.step, row.joins,
					row.obsCand, row.ctxRows, row.rowsOut)
			}
		}
	}
}

// analyzeRow is one StandOff step's observed summary.
type analyzeRow struct {
	step, joins               string
	obsCand, ctxRows, rowsOut int64
}

// standOffRows walks an analyzed plan tree and collects its StandOff steps.
func standOffRows(nodes []*soxq.OpNode) []analyzeRow {
	var out []analyzeRow
	for _, n := range nodes {
		if n.Step != nil && n.Step.StandOff {
			row := analyzeRow{step: n.Step.Axis + "::" + n.Step.Test}
			if n.Obs != nil {
				row.joins = n.Obs.Joins
				row.obsCand = n.Obs.Candidates
				row.ctxRows = n.Obs.RowsIn
				row.rowsOut = n.Obs.RowsOut
			}
			out = append(out, row)
		}
		out = append(out, standOffRows(n.Children)...)
	}
	return out
}

func splitFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fatal("bad scale %q", part)
		}
		out = append(out, v)
	}
	return out
}

func splitInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fatal("bad query number %q", part)
		}
		out = append(out, v)
	}
	return out
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "sobench: "+format+"\n", args...)
	os.Exit(1)
}
