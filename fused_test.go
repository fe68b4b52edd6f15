package soxq

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"soxq/internal/xmark"
)

// nestedDoc generates a document in which t elements nest inside t elements
// at several depths, among u and v siblings and text, each attribute present
// or missing at random.
func nestedDoc(r *rand.Rand) string {
	var sb strings.Builder
	var elem func(depth int)
	elem = func(depth int) {
		name := []string{"t", "t", "u", "v"}[r.Intn(4)]
		sb.WriteString("<" + name)
		if r.Intn(3) > 0 {
			fmt.Fprintf(&sb, ` a="%s"`, []string{"v", "w", "1", "2", "3", "4"}[r.Intn(6)])
		}
		if r.Intn(2) == 0 {
			fmt.Fprintf(&sb, ` b="%d"`, r.Intn(3))
		}
		sb.WriteString(">")
		for i, n := 0, r.Intn(4); i < n && depth < 6; i++ {
			if r.Intn(4) == 0 {
				sb.WriteString([]string{"x", "y"}[r.Intn(2)])
			} else {
				elem(depth + 1)
			}
		}
		sb.WriteString("</" + name + ">")
	}
	sb.WriteString("<root>")
	for i := 0; i < 4; i++ {
		elem(1)
	}
	sb.WriteString("</root>")
	return sb.String()
}

// TestFusedPredicatesMatchUnfused checks the // fusion against an oracle the
// planner cannot fuse: doc(d)//t[p] must equal the per-node child step
// (for $n in doc(d)/descendant-or-self::node() return $n/t[p])/. under Exec
// and Stream in every Mode, and EXPLAIN must show (fused //) for exactly the
// position-free predicates.
func TestFusedPredicatesMatchUnfused(t *testing.T) {
	const prolog = `declare variable $v := "v"; declare variable $n := 2; `
	for _, tc := range []struct {
		preds string
		fused bool
	}{
		{`[@a = "v"]`, true},
		{`[@a < 3]`, true},
		{`[@a = $v]`, true},
		{`[u = "x"]`, true},
		{`[@a and @b]`, true},
		{`[not(@a)]`, true},
		{`[exists(u)]`, true},
		{`[@a][@b = 1]`, true},
		{`[1]`, false},
		{`[last()]`, false},
		{`[position() < 3]`, false},
		{`[$n]`, false},
		{`[@a = "v"][1]`, false},
	} {
		fusedQ := prolog + `doc("f.xml")//t` + tc.preds
		oracleQ := prolog + `(for $x in doc("f.xml")/descendant-or-self::node() return $x/t` + tc.preds + `)/.`
		for seed := int64(0); seed < 25; seed++ {
			eng := New()
			doc := nestedDoc(rand.New(rand.NewSource(seed)))
			if err := eng.LoadXML("f.xml", []byte(doc)); err != nil {
				t.Fatal(err)
			}
			fused, err := eng.Prepare(fusedQ)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := eng.Prepare(oracleQ)
			if err != nil {
				t.Fatal(err)
			}
			if seed == 0 {
				if got := strings.Contains(fused.Explain().String(), "(fused //)"); got != tc.fused {
					t.Errorf("%s: fused = %v, want %v:\n%s", fusedQ, got, tc.fused, fused.Explain())
				}
				if strings.Contains(oracle.Explain().String(), "(fused //)") {
					t.Errorf("%s: the oracle fused", oracleQ)
				}
			}
			res, err := oracle.Exec(Config{})
			if err != nil {
				t.Fatal(err)
			}
			want := res.String()
			for _, mode := range []Mode{ModeAuto, ModeLoopLifted, ModeBasic, ModeUDF} {
				for _, cfg := range []Config{{Mode: mode}, {Mode: mode, StreamChunk: 2}} {
					for q, p := range map[string]*Prepared{fusedQ: fused, oracleQ: oracle} {
						res, err := p.Exec(cfg)
						if err != nil {
							t.Fatal(err)
						}
						cur, err := p.Stream(cfg)
						if err != nil {
							t.Fatal(err)
						}
						streamed, err := drainStream(cur)
						if err != nil {
							t.Fatal(err)
						}
						if res.String() != want || streamed != want {
							t.Fatalf("seed %d %s cfg %+v:\nexec   %q\nstream %q\nwant   %q\ndoc: %s",
								seed, q, cfg, res.String(), streamed, want, doc)
						}
					}
				}
			}
		}
	}
}

// stepRows sums RowsIn + RowsOut over every analysed step of a plan.
func stepRows(nodes []*OpNode) int64 {
	var n int64
	for _, op := range nodes {
		if op.Kind == "step" && op.Obs != nil {
			n += op.Obs.RowsIn + op.Obs.RowsOut
		}
		n += stepRows(op.Children)
	}
	return n
}

// TestFusedStepWorkIgnoresOtherNodes is a noise-free work guard: with ten
// times the non-scene nodes and the same scenes, the fused
// //scene[@id = "s7"] path moves exactly as many step rows, while the
// unfused //scene[1] moves more.
func TestFusedStepWorkIgnoresOtherNodes(t *testing.T) {
	docXML := func(pad int) string {
		var sb strings.Builder
		sb.WriteString("<doc>")
		for s := 0; s < 20; s++ {
			fmt.Fprintf(&sb, `<scene id="s%d" start="%d" end="%d"/>`, s, s*100, s*100+99)
			for h := 0; h < 3; h++ {
				fmt.Fprintf(&sb, `<hit start="%d" end="%d"/>`, s*100+h, s*100+h+1)
			}
			for p := 0; p < pad; p++ {
				sb.WriteString("<note><w>x</w></note>")
			}
		}
		return sb.String() + "</doc>"
	}
	rows := func(q string, pad int) int64 {
		eng := New()
		if err := eng.LoadXML("d.xml", []byte(docXML(pad))); err != nil {
			t.Fatal(err)
		}
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, ex, err := p.Analyze(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() == 0 {
			t.Fatalf("%s: empty result", q)
		}
		return stepRows(ex.Plan)
	}
	q := `doc("d.xml")//scene[@id = "s7"]/select-narrow::hit`
	if small, big := rows(q, 1), rows(q, 10); small != big {
		t.Errorf("%s: step rows %d at 1x padding, %d at 10x; want equal", q, small, big)
	}
	q = `doc("d.xml")//scene[1]`
	if small, big := rows(q, 1), rows(q, 10); big <= small {
		t.Errorf("%s: step rows %d at 1x padding, %d at 10x; want growth", q, small, big)
	}
}

// TestExplainUnchangedForUnfusedQueries pins the plans of the XMark queries
// and the big-corpus stand-off query, none of which has a predicate on a //
// step, to their form before position-free predicates fused.
func TestExplainUnchangedForUnfusedQueries(t *testing.T) {
	want, err := os.ReadFile("testdata/explain_unfused.golden")
	if err != nil {
		t.Fatal(err)
	}
	eng := New()
	var qs []string
	for _, q := range []int{1, 2, 6, 7} {
		qs = append(qs, xmark.StandOffQuery(q, "xmark-so.xml"))
	}
	qs = append(qs, `doc("big.xml")//scene/select-narrow::hit`)
	var sb strings.Builder
	for _, q := range qs {
		p, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		sb.WriteString("=====" + q + "\n" + p.Explain().String())
	}
	if got := sb.String(); got != string(want) {
		t.Fatalf("explain:\n%s\nwant:\n%s", got, want)
	}
}
