// Command benchcheck checks `go test -bench` output on stdin against the
// baseline in BENCH_stream.json and exits non-zero when a rule fails:
//
//   - every baselined cell's B/op and allocs/op must be at most
//     tolerance_pct above its baseline. A baselined cell missing from the
//     input fails, and so does a measured cell with no baseline, so neither
//     a silently skipped benchmark nor a new unguarded one passes;
//   - the overhead rule's cell must report an overhead-% of at most max_pct:
//     the engine's always-on metrics against telemetry off, which the
//     benchmark times pairwise within one run. This cell needs no baseline.
//
// Every column is the median over the -count repetitions of a cell, which
// absorbs the noise a single short run would turn into a failure. The input
// passes through to stdout; the result table goes to stderr and, when
// $GITHUB_STEP_SUMMARY is set, to the CI job summary.
//
// With -update the baseline's B/op and allocs/op are rewritten from the
// input instead: measured cells are refreshed or added, cells absent from
// the input keep their values, and the overhead cell is never written.
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
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

const (
	baselineFile = "BENCH_stream.json"
	overheadUnit = "overhead-%"
)

type baseline struct {
	Comment      string           `json:"_comment"`
	TolerancePct float64          `json:"tolerance_pct"`
	Overhead     overhead         `json:"overhead"`
	BytesPerOp   map[string]int64 `json:"bytes_per_op"`
	AllocsPerOp  map[string]int64 `json:"allocs_per_op"`
}

// overhead bounds the median overhead-% column of Cell to at most MaxPct.
type overhead struct {
	Cell   string  `json:"cell"`
	MaxPct float64 `json:"max_pct"`
}

// samples holds one benchmark's columns by unit ("ns/op", "B/op", ...), one
// value per -count repetition.
type samples map[string][]float64

// row is one comparison of the result table. A row with an empty metric
// reports a cell that is missing from the input or from the baseline.
type row struct {
	cell, metric string
	got, want    float64
	status       string
	ok           bool
}

// benchLine matches one result line: the name, with a -N GOMAXPROCS suffix
// unless N is 1, the iteration count, then value-unit pairs. Those are ns/op,
// MB/s when the benchmark calls SetBytes, its ReportMetric columns, and B/op
// and allocs/op when it reports allocations, e.g.
// "BenchmarkLoad-4  3  29012345 ns/op  262.40 MB/s  22355914 B/op  168 allocs/op".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+((?:\s+-?\d+(?:\.\d+)? \S+)+)\s*$`)

func main() {
	update := flag.Bool("update", false, "rewrite the baseline's B/op and allocs/op from the input instead of checking")
	flag.Parse()

	data, err := os.ReadFile(baselineFile)
	if err != nil {
		fatal("reading baseline: %v", err)
	}
	var base baseline
	if err := json.Unmarshal(data, &base); err != nil {
		fatal("parsing baseline: %v", err)
	}
	measured, err := parse(io.TeeReader(os.Stdin, os.Stdout))
	if err != nil {
		fatal("reading bench output: %v", err)
	}

	if *update {
		n := updateBaseline(&base, measured)
		out, err := json.MarshalIndent(&base, "", "  ")
		if err != nil {
			fatal("%v", err)
		}
		if err := os.WriteFile(baselineFile, append(out, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "benchcheck: %d cells written to %s\n", n, baselineFile)
		return
	}

	rows, ok := check(measured, base)
	table := render(rows, base)
	fmt.Fprint(os.Stderr, table)
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		if err := appendFile(path, table); err != nil {
			fmt.Fprintf(os.Stderr, "benchcheck: writing the job summary: %v\n", err)
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// parse collects the result lines of bench output by benchmark name.
func parse(r io.Reader) (map[string]samples, error) {
	measured := map[string]samples{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		s := measured[m[1]]
		if s == nil {
			s = samples{}
			measured[m[1]] = s
		}
		f := strings.Fields(m[2])
		for i := 0; i < len(f); i += 2 {
			v, _ := strconv.ParseFloat(f[i], 64) // benchLine admits only numbers here
			s[f[i+1]] = append(s[f[i+1]], v)
		}
	}
	return measured, sc.Err()
}

// check applies the baseline's rules to the measured cells and reports
// whether all of them hold, with one row per comparison, sorted.
func check(measured map[string]samples, base baseline) ([]row, bool) {
	o := base.Overhead
	var rows []row
	for name := range measured {
		if _, ok := base.BytesPerOp[name]; !ok && name != o.Cell {
			rows = append(rows, row{cell: name, status: "FAIL: not baselined, add it with -update"})
		}
	}
	for name, want := range base.BytesPerOp {
		s := measured[name]
		if len(s["B/op"]) == 0 {
			rows = append(rows, row{cell: name, status: "FAIL: no B/op for it in the input"})
			continue
		}
		rows = append(rows,
			compare(name, "B/op", median(s["B/op"]), float64(want), base.TolerancePct),
			compare(name, "allocs/op", median(s["allocs/op"]), float64(base.AllocsPerOp[name]), base.TolerancePct))
	}
	if o.Cell != "" {
		if got := measured[o.Cell][overheadUnit]; len(got) == 0 {
			rows = append(rows, row{cell: o.Cell, status: "FAIL: no " + overheadUnit + " for it in the input"})
		} else {
			r := row{cell: o.Cell, metric: overheadUnit, got: median(got), want: o.MaxPct, status: "ok", ok: true}
			if r.got > o.MaxPct {
				r.status, r.ok = "FAIL: over the budget", false
			}
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].cell != rows[j].cell {
			return rows[i].cell < rows[j].cell
		}
		return rows[i].metric < rows[j].metric
	})
	ok := true
	for _, r := range rows {
		ok = ok && r.ok
	}
	return rows, ok
}

// compare fails got when it exceeds want by more than tolPct percent; a
// baseline of 0 therefore fails on any amount.
func compare(cell, metric string, got, want, tolPct float64) row {
	r := row{cell: cell, metric: metric, got: got, want: want, status: "ok", ok: true}
	switch {
	case got > want*(1+tolPct/100):
		r.status, r.ok = fmt.Sprintf("FAIL: more than %g%% above", tolPct), false
	case got < want*(1-tolPct/100):
		r.status = "improved: re-baseline with -update"
	}
	return r
}

// updateBaseline writes every measured cell's median B/op and allocs/op into
// base, except the overhead rule's cell, whose memory is not guarded. It
// returns the number of cells written.
func updateBaseline(base *baseline, measured map[string]samples) int {
	n := 0
	for name, s := range measured {
		if name == base.Overhead.Cell || len(s["B/op"]) == 0 {
			continue
		}
		base.BytesPerOp[name] = int64(math.Round(median(s["B/op"])))
		base.AllocsPerOp[name] = int64(math.Round(median(s["allocs/op"])))
		n++
	}
	return n
}

// render formats the rows as a GitHub-flavoured markdown table.
func render(rows []row, base baseline) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "### benchcheck: memory within %g%% of %s", base.TolerancePct, baselineFile)
	if o := base.Overhead; o.Cell != "" {
		fmt.Fprintf(&sb, ", `%s` %s at most %g", o.Cell, overheadUnit, o.MaxPct)
	}
	sb.WriteString("\n\n| Benchmark | Metric | Measured | Baseline | Δ | Status |\n|---|---|---|---|---|---|\n")
	for _, r := range rows {
		got, want, delta := "—", "—", "—"
		if r.metric != "" {
			got, want = strconv.FormatFloat(r.got, 'f', -1, 64), strconv.FormatFloat(r.want, 'f', -1, 64)
			if r.want != 0 && r.metric != overheadUnit {
				delta = fmt.Sprintf("%+.1f%%", 100*(r.got-r.want)/r.want)
			}
		}
		fmt.Fprintf(&sb, "| `%s` | %s | %s | %s | %s | %s |\n",
			strings.TrimPrefix(r.cell, "Benchmark"), r.metric, got, want, delta, r.status)
	}
	sb.WriteString("\n")
	return sb.String()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func appendFile(path, text string) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(text); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchcheck: "+format+"\n", args...)
	os.Exit(1)
}
