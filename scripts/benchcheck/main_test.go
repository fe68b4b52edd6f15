package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func testBaseline() baseline {
	return baseline{
		TolerancePct: 20,
		Overhead:     overhead{Cell: "BenchmarkTel/metrics", MaxPct: 5},
		BytesPerOp:   map[string]int64{"BenchmarkA": 1000, "BenchmarkZero": 0},
		AllocsPerOp:  map[string]int64{"BenchmarkA": 10, "BenchmarkZero": 0},
	}
}

// line formats one result line the way `go test -bench` prints it at
// GOMAXPROCS 4 for a benchmark that reports allocations.
func line(name string, ns, bytes, allocs int) string {
	return fmt.Sprintf("%s-4   \t       3\t %d ns/op\t %d B/op\t %d allocs/op\n", name, ns, bytes, allocs)
}

// tel formats a result line of the overhead cell, which reports its
// overhead-% through ReportMetric and no allocations.
func tel(pct float64) string {
	return fmt.Sprintf("BenchmarkTel/metrics-4 \t    2000\t     12276 ns/op\t %8.3f overhead-%%\n", pct)
}

// passing is an input every rule of testBaseline accepts.
func passing() []string {
	return []string{
		line("BenchmarkA", 500, 1100, 11),
		line("BenchmarkZero", 40, 0, 0),
		tel(1.5),
	}
}

// with returns passing() with the line of cell replaced by repl (dropped
// when repl is empty), then extra appended.
func with(cell, repl string, extra ...string) string {
	var sb strings.Builder
	for _, l := range passing() {
		if cell != "" && strings.HasPrefix(l, cell+"-") {
			l = repl
		}
		sb.WriteString(l)
	}
	for _, l := range extra {
		sb.WriteString(l)
	}
	return sb.String()
}

func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
		fails []string // "cell metric" of each failing row
	}{
		{"pass", with("", ""), nil},
		{"bytes regression", with("BenchmarkA", line("BenchmarkA", 500, 1201, 10)), []string{"BenchmarkA B/op"}},
		{"allocs regression", with("BenchmarkA", line("BenchmarkA", 500, 1000, 13)), []string{"BenchmarkA allocs/op"}},
		{"improvement passes", with("BenchmarkA", line("BenchmarkA", 500, 10, 1)), nil},
		{"zero baseline fails on any allocation", with("BenchmarkZero", line("BenchmarkZero", 40, 8, 1)),
			[]string{"BenchmarkZero B/op", "BenchmarkZero allocs/op"}},
		{"missing baselined cell", with("BenchmarkA", ""), []string{"BenchmarkA "}},
		{"baselined cell without allocations", with("BenchmarkA", "BenchmarkA-4 3 500 ns/op\n"), []string{"BenchmarkA "}},
		{"unbaselined cell", with("", "", line("BenchmarkNew", 1, 1, 1)), []string{"BenchmarkNew "}},
		{"overhead within budget", with("BenchmarkTel/metrics", tel(4.9)), nil},
		{"overhead over budget", with("BenchmarkTel/metrics", tel(5.1)), []string{"BenchmarkTel/metrics overhead-%"}},
		{"overhead cell missing", with("BenchmarkTel/metrics", ""), []string{"BenchmarkTel/metrics "}},
		{"medians over -count", with("", "",
			line("BenchmarkA", 500, 5000, 50), line("BenchmarkA", 500, 1000, 10),
			tel(40), tel(-3)),
			nil},
		{"medians over -count fail", with("", "",
			line("BenchmarkA", 500, 5000, 50), line("BenchmarkA", 500, 5000, 10),
			tel(7), tel(8)),
			[]string{"BenchmarkA B/op", "BenchmarkTel/metrics overhead-%"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measured, err := parse(strings.NewReader(tc.input))
			if err != nil {
				t.Fatal(err)
			}
			rows, ok := check(measured, testBaseline())
			var fails []string
			for _, r := range rows {
				if !r.ok {
					fails = append(fails, r.cell+" "+r.metric)
				}
			}
			if !reflect.DeepEqual(fails, tc.fails) || ok != (len(tc.fails) == 0) {
				t.Errorf("failing rows %q (ok=%v), want %q\n%s", fails, ok, tc.fails, render(rows, testBaseline()))
			}
		})
	}
}

func TestParse(t *testing.T) {
	input := "goos: linux\n" +
		"BenchmarkStreamExec\n" +
		"BenchmarkLoad-8   \t       3\t  29012345 ns/op\t 262.40 MB/s\t22355914 B/op\t     168 allocs/op\n" +
		"BenchmarkStreamExec/standoff-final/stream-16 3 1234.5 ns/op 677762 B/op 35 allocs/op\n" +
		"BenchmarkFig6_Q1/looplifted/scale=0.05       3      12000 ns/op        3992 B/op         64 allocs/op\n" +
		"BenchmarkPreparedExecTelemetry/metrics-2 \t 2000\t 12276 ns/op\t  -1.283 overhead-%\n" +
		"BenchmarkUDFNoCandidate-4 \t 3\t 99 ns/op\n" +
		"--- BENCH: BenchmarkUDFNoCandidate-4\n" +
		"PASS\n"
	got, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]samples{
		"BenchmarkLoad": {"ns/op": {29012345}, "MB/s": {262.40}, "B/op": {22355914}, "allocs/op": {168}},
		"BenchmarkStreamExec/standoff-final/stream": {"ns/op": {1234.5}, "B/op": {677762}, "allocs/op": {35}},
		"BenchmarkFig6_Q1/looplifted/scale=0.05":    {"ns/op": {12000}, "B/op": {3992}, "allocs/op": {64}},
		"BenchmarkPreparedExecTelemetry/metrics":    {"ns/op": {12276}, "overhead-%": {-1.283}},
		"BenchmarkUDFNoCandidate":                   {"ns/op": {99}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed\n%v\nwant\n%v", got, want)
	}
}

func TestUpdateLeavesOverheadCellOut(t *testing.T) {
	// Under -benchmem the overhead cell prints B/op and allocs/op too.
	measured, err := parse(strings.NewReader(with("BenchmarkTel/metrics",
		"BenchmarkTel/metrics-4 2000 12276 ns/op 1.5 overhead-% 4960 B/op 82 allocs/op\n",
		line("BenchmarkNew", 1, 300, 3), line("BenchmarkA", 500, 900, 9),
		"BenchmarkNoAllocs-4 3 500 ns/op\n")))
	if err != nil {
		t.Fatal(err)
	}
	base := testBaseline()
	if n := updateBaseline(&base, measured); n != 3 {
		t.Errorf("updateBaseline wrote %d cells, want 3", n)
	}
	wantBytes := map[string]int64{"BenchmarkA": 1000, "BenchmarkZero": 0, "BenchmarkNew": 300}
	wantAllocs := map[string]int64{"BenchmarkA": 10, "BenchmarkZero": 0, "BenchmarkNew": 3}
	if !reflect.DeepEqual(base.BytesPerOp, wantBytes) || !reflect.DeepEqual(base.AllocsPerOp, wantAllocs) {
		t.Errorf("baseline after -update: B/op %v, allocs/op %v; want %v, %v",
			base.BytesPerOp, base.AllocsPerOp, wantBytes, wantAllocs)
	}
}
