package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json the selfcheck reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSelfcheck runs the end-to-end phase of every workload twice, the
// second time in reverse order, and holds the two values of each (metric,
// workload) pair against the metric's bound in BENCHMARK.json. A pair that
// differs by more than its bound is listed for demotion to the per-layer
// list (as e2e.<name>). The bounds themselves are set from the spread of ten
// runs on ten seeds, as the driver measures it (README.md, "Bounds"), not
// from this check.
func runSelfcheck(seed uint64, seconds float64) int {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fatal(fmt.Errorf("selfcheck runs from the repository root: %w", err))
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	order := make([]string, len(workloads))
	for i, w := range workloads {
		order[i] = w.name
	}
	var sets [2]map[string]map[string]metric
	for pass := range sets {
		sets[pass] = map[string]map[string]metric{}
		for _, w := range order {
			fmt.Fprintf(os.Stderr, "selfcheck: pass %d, %s\n", pass+1, w)
			m, err := child(childArgs(w, seed, seconds, 0), false)
			if err != nil {
				fatal(err)
			}
			sets[pass][w] = m
		}
		slices.Reverse(order)
	}

	fmt.Printf("%-16s %-14s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	var demote []string
	for _, w := range order {
		for _, e := range bf.EndToEnd {
			a, b := sets[0][w][e.Name].Value, sets[1][w][e.Name].Value
			lo, hi := min(a, b), max(a, b)
			worse := ratio(hi-lo, lo) // either run may be the parent: the larger gap counts
			flag := ""
			if worse > e.Bound {
				flag = "  BREACH"
				if !slices.Contains(demote, e.Name) {
					demote = append(demote, e.Name)
				}
			}
			fmt.Printf("%-16s %-14s %14.4f %14.4f %8.2f%% %6.0f%%%s\n", w, e.Name, a, b, 100*worse, 100*e.Bound, flag)
		}
	}
	if len(demote) == 0 {
		fmt.Println("selfcheck: every (metric, workload) pair agrees within its bound")
		return 0
	}
	for _, name := range demote {
		fmt.Printf("selfcheck: demote %s to per_layer as e2e.%s\n", name, name)
	}
	return 1
}
