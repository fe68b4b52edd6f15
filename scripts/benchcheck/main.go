// Command benchcheck compares the B/op and allocs/op columns of
// `go test -bench -benchmem` output on stdin against the checked-in baseline
// (BENCH_stream.json) and exits non-zero when any baselined benchmark
// regresses by more than the configured tolerance — the memory-bound guard
// of the streaming pipeline's CI job. Benchmarks missing from the input
// (e.g. skipped on a single-core runner) fail the check too, so a
// silently-vanished cell cannot hide a regression. With -update, the
// baseline file is rewritten from the input instead — both columns at once,
// so the bytes and allocation guards never drift apart.
//
// When $GITHUB_STEP_SUMMARY is set (or -summary names a file), a check run
// additionally appends a markdown delta table there, so the per-cell
// comparison lands on the CI job summary page instead of only in the log.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkStreamExec -benchtime 3x . | go run ./scripts/benchcheck
//	go test -run '^$' -bench BenchmarkStreamExec -benchtime 3x . | go run ./scripts/benchcheck -update
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

type baseline struct {
	Comment      string           `json:"_comment"`
	TolerancePct float64          `json:"tolerance_pct"`
	BytesPerOp   map[string]int64 `json:"bytes_per_op"`
	AllocsPerOp  map[string]int64 `json:"allocs_per_op"`
}

type sample struct {
	bytes  int64
	allocs int64
}

// row is one rendered line of the job-summary delta table.
type row struct {
	name   string
	cells  []string // B/op and allocs/op delta cells
	status string
}

// benchLine matches one benchmark result line with B/op and allocs/op
// columns, e.g. "BenchmarkStreamExec/range-loop/exec-4  3  144670543 ns/op
// 222983376 B/op  122 allocs/op"; a benchmark that calls SetBytes prints an
// MB/s column between the two.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+\S+ ns/op(?:\s+\S+ MB/s)?\s+(\d+) B/op\s+(\d+) allocs/op`)

func main() {
	file := flag.String("baseline", "BENCH_stream.json", "baseline file")
	update := flag.Bool("update", false, "rewrite the baseline from the measured values instead of checking")
	summary := flag.String("summary", os.Getenv("GITHUB_STEP_SUMMARY"),
		"append a markdown delta table to this file after a check run (defaults to $GITHUB_STEP_SUMMARY)")
	instrumented := flag.String("instrumented", "",
		"note for the summary heading saying what engine instrumentation was active during the run (e.g. \"metrics on, trace off\")")
	flag.Parse()

	data, err := os.ReadFile(*file)
	if err != nil {
		fatal("reading baseline: %v", err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal("parsing baseline: %v", err)
	}
	if base.TolerancePct <= 0 {
		base.TolerancePct = 20
	}
	if base.AllocsPerOp == nil {
		base.AllocsPerOp = map[string]int64{}
	}

	measured := map[string]sample{}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the raw output through for the CI log
		if m := benchLine.FindStringSubmatch(line); m != nil {
			b, _ := strconv.ParseInt(m[2], 10, 64)
			a, _ := strconv.ParseInt(m[3], 10, 64)
			measured[m[1]] = sample{bytes: b, allocs: a}
		}
	}
	if err := sc.Err(); err != nil {
		fatal("reading bench output: %v", err)
	}

	if *update {
		// Merge the measured cells in: a newly added benchmark enters the
		// baseline here, while cells missing from this run (e.g. a partial
		// -bench filter) keep their old values rather than silently losing
		// their guard.
		updated, added := 0, 0
		for name, got := range measured {
			if _, ok := base.BytesPerOp[name]; ok {
				updated++
			} else {
				added++
			}
			base.BytesPerOp[name] = got.bytes
			base.AllocsPerOp[name] = got.allocs
		}
		out, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(*file, append(out, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "benchcheck: baseline %s updated (%d cells refreshed, %d added, %d kept)\n",
			*file, updated, added, len(base.BytesPerOp)-updated-added)
		return
	}

	failed := false
	var rows []row
	for name := range measured {
		if _, ok := base.BytesPerOp[name]; !ok {
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL %s: measured but not in the baseline — re-baseline with -update so the new cell gets a regression guard\n", name)
			rows = append(rows, row{name: name, cells: []string{"—", "—"}, status: "❌ not baselined"})
			failed = true
		}
	}
	check := func(metric, name string, got, want int64) (cell string, ok bool) {
		deltaPct := 100 * (float64(got) - float64(want)) / float64(want)
		cell = fmt.Sprintf("%d vs %d (%+.1f%%)", got, want, deltaPct)
		switch {
		case deltaPct > base.TolerancePct:
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL %s: %d %s, baseline %d (+%.1f%% > %.0f%% tolerance)\n",
				name, got, metric, want, deltaPct, base.TolerancePct)
			return cell, false
		case deltaPct < -base.TolerancePct:
			fmt.Fprintf(os.Stderr, "benchcheck: note %s improved to %d %s (baseline %d, %.1f%%) — consider re-baselining with -update\n",
				name, got, metric, want, deltaPct)
		default:
			fmt.Fprintf(os.Stderr, "benchcheck: ok %s: %d %s (baseline %d, %+.1f%%)\n", name, got, metric, want, deltaPct)
		}
		return cell, true
	}
	for name, want := range base.BytesPerOp {
		got, ok := measured[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchcheck: FAIL %s: missing from bench output\n", name)
			rows = append(rows, row{name: name, cells: []string{"missing", "missing"}, status: "❌ missing"})
			failed = true
			continue
		}
		r := row{name: name, status: "✅"}
		bCell, bOK := check("B/op", name, got.bytes, want)
		r.cells = append(r.cells, bCell)
		aOK := true
		// Cells baselined before the allocs column existed have no
		// allocation guard until the next -update.
		if wantAllocs, ok := base.AllocsPerOp[name]; ok && wantAllocs > 0 {
			var aCell string
			aCell, aOK = check("allocs/op", name, got.allocs, wantAllocs)
			r.cells = append(r.cells, aCell)
		} else {
			r.cells = append(r.cells, "unguarded")
		}
		if !bOK || !aOK {
			r.status = "❌ regressed"
			failed = true
		}
		rows = append(rows, r)
	}
	if *summary != "" {
		if err := writeSummary(*summary, rows, base.TolerancePct, *instrumented); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: writing summary: %v\n", err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// writeSummary appends the delta table as GitHub-flavored markdown to the
// job-summary file.
func writeSummary(path string, rows []row, tolerance float64, instrumented string) error {
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	var sb strings.Builder
	fmt.Fprintf(&sb, "### benchcheck: streaming memory guard (±%.0f%%)\n\n", tolerance)
	if instrumented != "" {
		fmt.Fprintf(&sb, "Instrumentation during this run: %s.\n\n", instrumented)
	}
	sb.WriteString("| Benchmark | B/op vs baseline | allocs/op vs baseline | Status |\n")
	sb.WriteString("|---|---|---|---|\n")
	for _, r := range rows {
		name := strings.TrimPrefix(r.name, "Benchmark")
		fmt.Fprintf(&sb, "| `%s` | %s | %s | %s |\n", name, r.cells[0], r.cells[1], r.status)
	}
	sb.WriteString("\n")
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.WriteString(sb.String())
	return err
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
