package soxq

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestAnnotateBurstStreamOrder is the annotate-burst shape under every
// execution form: marks are inserted at random positions through
// InsertAnnotation, so their document order is their insertion order and
// not their region order, and some are deleted again. After each burst,
// //scene/select-narrow::mark and select-wide::mark must read the same under
// Stream and Exec, Loop-Lifted and ModeBasic, at StreamChunk 1, 2, 7 and
// 1024, as over a fresh load of the same document. The streamed select
// steps must have held pres back for the watermark. It runs once in the
// attribute encoding and once in the region-element encoding, where scenes
// and some marks carry several regions.
func TestAnnotateBurstStreamOrder(t *testing.T) {
	for _, multi := range []bool{false, true} {
		t.Run(fmt.Sprintf("multi-region=%v", multi), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			declare := func(e *Engine) {
				if multi {
					if err := e.Declare("standoff-region", "region"); err != nil {
						t.Fatal(err)
					}
				}
			}
			area := func(sb *strings.Builder, name string, regs ...Region) {
				if !multi {
					fmt.Fprintf(sb, `<%s start="%d" end="%d"/>`, name, regs[0].Start, regs[0].End)
					return
				}
				sb.WriteString("<" + name + ">")
				for _, r := range regs {
					fmt.Fprintf(sb, "<region><start>%d</start><end>%d</end></region>", r.Start, r.End)
				}
				sb.WriteString("</" + name + ">")
			}
			markRegions := func() []Region {
				s := rng.Int63n(1000)
				regs := []Region{{Start: s, End: s + 1 + rng.Int63n(30)}}
				if multi && rng.Intn(3) == 0 {
					s2 := regs[0].End + 5 + rng.Int63n(40)
					regs = append(regs, Region{Start: s2, End: s2 + 1 + rng.Int63n(10)})
				}
				return regs
			}
			var sb strings.Builder
			sb.WriteString("<doc>")
			for i := int64(0); i < 25; i++ {
				regs := []Region{{Start: i * 40, End: i*40 + 39}}
				if multi && i%3 == 0 {
					// A second region elsewhere makes the scene a
					// multi-region context (exact containment).
					// (Never the scene's own span: 7i+11 ≡ i mod 25 only
					// at i = 19.)
					s := 40 * ((i*7 + 11) % 25)
					regs = append(regs, Region{Start: s + 10, End: s + 30})
					if s < i*40 {
						regs[0], regs[1] = regs[1], regs[0]
					}
				}
				area(&sb, "scene", regs...)
			}
			for i := int64(0); i < 20; i++ {
				area(&sb, "mark", Region{Start: i * 50, End: i*50 + 6})
			}
			sb.WriteString("</doc>")
			eng := New()
			declare(eng)
			if err := eng.LoadXML("a.xml", []byte(sb.String())); err != nil {
				t.Fatal(err)
			}
			if err := eng.BuildIndex("a.xml"); err != nil {
				t.Fatal(err)
			}
			queries := []string{`doc("a.xml")//scene/select-narrow::mark`, `doc("a.xml")//scene/select-wide::mark`}
			var inserted [][2]int64 // covering bounds of inserted marks
			for round := 0; round < 4; round++ {
				for i := 0; i < 40; i++ {
					regs := markRegions()
					if err := eng.InsertAnnotation("a.xml", "mark", regs...); err != nil {
						t.Fatal(err)
					}
					inserted = append(inserted, [2]int64{regs[0].Start, regs[len(regs)-1].End})
				}
				for i := 0; i < 6; i++ {
					b := inserted[rng.Intn(len(inserted))]
					if _, err := eng.DeleteAnnotation("a.xml", "mark", b[0], b[1]); err != nil {
						t.Fatal(err)
					}
				}
				res, err := eng.Query(`doc("a.xml")`)
				if err != nil {
					t.Fatal(err)
				}
				oracle := New()
				declare(oracle)
				if err := oracle.LoadXML("a.xml", []byte(res.String())); err != nil {
					t.Fatal(err)
				}
				for _, q := range queries {
					ref, err := oracle.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					want := ref.String()
					prep, err := eng.Prepare(q)
					if err != nil {
						t.Fatal(err)
					}
					for _, mode := range []Mode{ModeAuto, ModeBasic} {
						for _, chunk := range []int{1, 2, 7, 1024} {
							cfg := Config{Mode: mode, StreamChunk: chunk}
							res, err := prep.Exec(cfg)
							if err != nil {
								t.Fatal(err)
							}
							if got := res.String(); got != want {
								t.Fatalf("round %d %q %+v: Exec\n got %q\nwant %q", round, q, cfg, got, want)
							}
							cur, err := prep.Stream(cfg)
							if err != nil {
								t.Fatal(err)
							}
							got, err := drainStream(cur)
							if err != nil {
								t.Fatal(err)
							}
							if got != want {
								t.Fatalf("round %d %q %+v: Stream\n got %q\nwant %q", round, q, cfg, got, want)
							}
						}
					}
					if _, ex, err := prep.Analyze(Config{StreamChunk: 2}); err != nil {
						t.Fatal(err)
					} else if !strings.Contains(ex.String(), "pending≤") {
						t.Fatalf("round %d %q: the stream held nothing back:\n%s", round, q, ex)
					}
				}
			}
		})
	}
}
