package xqexec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"soxq/internal/core"
	"soxq/internal/interval"
	"soxq/internal/tree"
	"soxq/internal/xmlparse"
	"soxq/internal/xqeval"
	"soxq/internal/xqparse"
	"soxq/internal/xqplan"
)

// reversedLayerDoc writes a word layer in the reverse of its region order,
// so every chunk's output lands above the watermark and the stream's merge
// holds it as a pending run, under context areas that overlap their
// neighbours (a word matched from two chunks is a cross-chunk duplicate) and
// that are often multi-region (a chunk's output then spans the document).
// Region-element mode, so areas may carry several regions.
func reversedLayerDoc(rng *rand.Rand) string {
	const words, ctxs = 80, 30
	var sb strings.Builder
	area := func(name string, regs []interval.Region) {
		sb.WriteString("<" + name + ">")
		for _, r := range regs {
			fmt.Fprintf(&sb, "<region><start>%d</start><end>%d</end></region>", r.Start, r.End)
		}
		sb.WriteString("</" + name + ">")
	}
	sb.WriteString("<doc>")
	for j := 0; j < ctxs; j++ {
		s := int64(j * 30)
		regs := []interval.Region{{Start: s, End: s + 25 + int64(rng.Intn(40))}}
		for n := rng.Intn(3); n > 0; n-- {
			o := int64(rng.Intn(words * 10))
			r := interval.Region{Start: o, End: o + int64(rng.Intn(30))}
			if a, err := interval.NewArea(append(slices.Clone(regs), r)...); err == nil {
				regs = a.Regions()
			}
		}
		area("ctx", regs)
	}
	for i := words - 1; i >= 0; i-- {
		s := int64(i*10 + rng.Intn(5))
		area("w", []interval.Region{{Start: s, End: s + int64(rng.Intn(6))}})
	}
	sb.WriteString("</doc>")
	return sb.String()
}

// TestRunMergeOnReversedLayer: over a layer whose document order is the
// reverse of its region order, a chunked select step agrees with the bulk
// evaluation row for row at every chunk size, and ANALYZE's out counts agree
// too; at the bounded chunk sizes the merge really held runs back.
func TestRunMergeOnReversedLayer(t *testing.T) {
	opts := core.DefaultOptions()
	if _, err := opts.Set("standoff-region", "region"); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		d, err := xmlparse.Parse("m.xml", []byte(reversedLayerDoc(rand.New(rand.NewSource(seed)))))
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.BuildIndex(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !ix.MultiRegion() {
			t.Fatalf("seed %d: no multi-region context area", seed)
		}
		for _, q := range []string{
			`doc("m.xml")//ctx/select-narrow::w`,
			`doc("m.xml")//ctx/select-wide::w`,
			`doc("m.xml")//w/select-wide::ctx/select-wide::w`,
		} {
			evaluator := func() *xqeval.Evaluator {
				m, err := xqparse.Parse(q)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := xqplan.Compile(m, opts)
				if err != nil {
					t.Fatal(err)
				}
				return &xqeval.Evaluator{
					Plan:     plan,
					Resolver: func(string) (*tree.Doc, error) { return d, nil },
					IndexFor: func(*tree.Doc) (*core.RegionIndex, error) { return ix, nil },
					Strategy: core.StrategyLoopLifted,
					Pushdown: true,
					Stats:    xqplan.NewExecStats(),
				}
			}
			bulk := evaluator()
			want := render(bulk.Run())
			wantOut, _ := stepOuts(bulk)
			for _, chunk := range []int{1, 2, 7, 64, 0} {
				ev := evaluator()
				cur, err := Build(ev, Config{ChunkSize: chunk})
				if err != nil {
					t.Fatal(err)
				}
				if got := render(drainRows(cur)); got != want {
					t.Fatalf("seed %d %q chunk %d:\n got %q\nwant %q", seed, q, chunk, got, want)
				}
				got, held := stepOuts(ev)
				if !slices.Equal(got, wantOut) {
					t.Fatalf("seed %d %q chunk %d: step out counts %v, bulk has %v", seed, q, chunk, got, wantOut)
				}
				if chunk > 0 && chunk < 7 && held == 0 {
					t.Fatalf("seed %d %q chunk %d: the merge held nothing back", seed, q, chunk)
				}
			}
		}
	}
}

// stepOuts lists the analyzed out count of every step of ev's plan, and the
// most rows a stream's merge held pending.
func stepOuts(ev *xqeval.Evaluator) (outs []int64, pending int) {
	var walk func(n *xqplan.Node)
	walk = func(n *xqplan.Node) {
		if n.StepObs != nil {
			outs = append(outs, n.StepObs.RowsOut)
			pending = max(pending, n.StepObs.PendingMax)
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	walk(ev.Plan.ExplainWith(ev.Stats).Root)
	return outs, pending
}
