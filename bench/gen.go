package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"soxq/internal/xmark"
	"soxq/internal/xmlparse"
)

// document is one generated input of the program under test.
type document struct {
	name string
	xml  []byte
}

// fixture is everything a workload feeds the program, made from the seed
// alone. The op loop uses it end to end; the traced run's layer probes call
// single layers on the same data.
type fixture struct {
	docs   []document
	corpus string // corpus over all docs, "" for a single-document workload

	primary string   // the query whose latency the workload reports
	texts   []string // distinct query texts the workload sends

	// The primary query's StandOff step, for calling core.Join directly:
	// context and candidate element names in docs[0], and whether each
	// context node is its own loop iteration (a step inside a for-loop).
	ctxElem, candElem string
	iterPerCtx        bool

	// span is the position range annotations may be written into, and
	// sceneWidth the width of a ctxElem region when regions tile the range
	// (0 when they do not, as in XMark).
	span, sceneWidth int64
}

func (fx *fixture) bytes() int {
	n := 0
	for _, d := range fx.docs {
		n += len(d.xml)
	}
	return n
}

// newRand gives each generator its own deterministic stream.
func newRand(seed uint64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed*1000003 + uint64(stream))))
}

// sceneDoc builds the repo's stand-off benchmark shape: scenes tiling the
// position range, each containing hits regions. The seed moves every hit
// inside its slot, so the bytes differ per seed while every hit stays
// narrow-contained in its scene and the row counts stay fixed.
func sceneDoc(rng *rand.Rand, scenes, hits int, width int64) []byte {
	slot := (width - 2) / int64(hits)
	if slot < 2 {
		panic("sceneDoc: scene too narrow for its hits")
	}
	b := make([]byte, 0, scenes*(40+hits*30))
	b = append(b, "<doc>"...)
	for s := 0; s < scenes; s++ {
		base := int64(s) * width
		b = append(b, `<scene id="s`...)
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, `" start="`...)
		b = strconv.AppendInt(b, base, 10)
		b = append(b, `" end="`...)
		b = strconv.AppendInt(b, base+width-1, 10)
		b = append(b, `"/>`...)
		for h := 0; h < hits; h++ {
			start := base + 1 + int64(h)*slot + rng.Int63n(slot-1)
			b = append(b, `<hit start="`...)
			b = strconv.AppendInt(b, start, 10)
			b = append(b, `" end="`...)
			b = strconv.AppendInt(b, start+1, 10)
			b = append(b, `"/>`...)
		}
	}
	return append(b, "</doc>"...)
}

// scaled applies the size factor to a count, keeping at least lo.
func scaled(n int, size float64, lo int) int {
	return max(lo, int(float64(n)*size+0.5))
}

// genFig6 generates the paper's section 4.6 input: an XMark document turned
// into stand-off form. size 1 is XMark scale fig6Scale.
func genFig6(seed uint64, size float64) (*fixture, error) {
	raw, err := xmark.GenerateBytes(xmark.Config{Scale: fig6Scale * size, Seed: seed})
	if err != nil {
		return nil, err
	}
	plain, err := xmlparse.Parse("plain.xml", raw)
	if err != nil {
		return nil, err
	}
	cfg := xmark.DefaultStandOffConfig()
	cfg.Seed = seed
	so, err := xmark.StandOffize(plain, cfg)
	if err != nil {
		return nil, err
	}
	fx := &fixture{
		docs:       []document{{"xmark.xml", so.XML}},
		primary:    xmark.StandOffQuery(2, "xmark.xml"),
		ctxElem:    "open_auction",
		candElem:   "bidder",
		iterPerCtx: true,
		span:       int64(len(so.Blob)),
	}
	for _, q := range xmark.QueryNumbers {
		fx.texts = append(fx.texts, xmark.StandOffQuery(q, "xmark.xml"))
	}
	return fx, nil
}

// sceneQuery is the stand-off step every scene-shaped workload asks.
func sceneQuery(uri, cand string) string {
	return fmt.Sprintf(`doc(%q)//scene/select-narrow::%s`, uri, cand)
}

// genCorpus generates the BenchmarkServerThroughput shape: 8 documents of
// 250 scenes x 60 hits, 122k regions, served as one corpus.
func genCorpus(seed uint64, size float64) (*fixture, error) {
	fx := sceneCorpus(seed, "bench", "doc%02d.xml", corpusDocs, scaled(corpusScenes, size, 2), corpusHits, 1000)
	fx.primary = sceneQuery("bench", "hit")
	fx.texts = []string{fx.primary}
	return fx, nil
}

func sceneCorpus(seed uint64, corpus, nameFmt string, docs, scenes, hits int, width int64) *fixture {
	fx := &fixture{corpus: corpus, ctxElem: "scene", candElem: "hit", span: int64(scenes) * width, sceneWidth: width}
	for i := 0; i < docs; i++ {
		fx.docs = append(fx.docs, document{fmt.Sprintf(nameFmt, i), sceneDoc(newRand(seed, i), scenes, hits, width)})
	}
	return fx
}

// genAnnotate generates the loadBigCorpus shape: one document of 2000
// scenes x 60 hits, 122k regions, that the workload then writes marks into.
// The workload reads the marks; the probes' primary query reads the hits,
// which a freshly loaded document has.
func genAnnotate(seed uint64, size float64) (*fixture, error) {
	scenes := scaled(annotateScenes, size, 8)
	fx := &fixture{
		docs:     []document{{"big.xml", sceneDoc(newRand(seed, 0), scenes, annotateHits, annotateWidth)}},
		primary:  sceneQuery("big.xml", "hit"),
		ctxElem:  "scene",
		candElem: "hit",
		span:     int64(scenes) * annotateWidth, sceneWidth: annotateWidth,
	}
	fx.texts = []string{fx.primary, sceneQuery("big.xml", "mark")}
	return fx, nil
}

// markAt gives the k-th mark its own region: starts walk the position range
// with a stride coprime to it, and the length grows by one per lap, so no
// two marks share (start, end) and a delete removes exactly one.
func markAt(k int, span int64) (start, end int64) {
	start = (int64(k)*markStride + 7) % span
	return start, start + 2 + int64(k)/span
}

// contained reports whether a mark lies inside one scene, which is when
// scene/select-narrow::mark returns it.
func contained(start, end, width int64) bool {
	return start/width == end/width
}

// mixedOp is one request of the small-mixed workload.
type mixedOp struct {
	url  string
	rows int // expected row count
}

// genMixed generates 8 tiny documents served as corpus "notes".
func genMixed(seed uint64, size float64) (*fixture, error) {
	scenes := scaled(mixedScenes, size, 2)
	fx := sceneCorpus(seed, "notes", "n%d.xml", mixedDocs, scenes, mixedHits, 1000)
	fx.primary = hotText(0, scenes)
	fx.texts = append(hotTexts(scenes), cachedTexts()...)
	return fx, nil
}

// hotText is the i-th of the 64 fixed small-result queries: every document
// crossed with eight (form, scene) variants.
func hotText(i, scenes int) string {
	doc := fmt.Sprintf("n%d.xml", i%mixedDocs)
	scene := (i * 7) % scenes
	switch (i / mixedDocs) % 4 {
	case 0:
		return fmt.Sprintf(`doc(%q)//scene[@id = "s%d"]/select-narrow::hit`, doc, scene)
	case 1:
		return fmt.Sprintf(`count(doc(%q)//scene[@id = "s%d"]/select-wide::hit)`, doc, scene)
	case 2:
		return fmt.Sprintf(`for $s in doc(%q)//scene[@id = "s%d"] return count($s/select-narrow::hit)`, doc, scene)
	default:
		return fmt.Sprintf(`doc(%q)//hit[@start < %d]/select-wide::scene`, doc, (scene+1)*1000)
	}
}

func hotTexts(scenes int) []string {
	out := make([]string, mixedHot)
	for i := range out {
		out[i] = hotText(i, scenes)
	}
	return out
}

// coldText is a query text no request repeats: the literal n is unique, and
// chosen above every position so the predicate keeps all hits of the scene.
func coldText(n, scenes int) string {
	return fmt.Sprintf(`doc("n%d.xml")//scene[@id = "s%d"]/select-narrow::hit[@start < %d]`,
		n%mixedDocs, n%scenes, 1_000_000_000+n)
}

// cachedTexts are the corpus aggregates sent with cache=1.
func cachedTexts() []string {
	out := make([]string, mixedCached)
	for i := range out {
		if i%2 == 0 {
			out[i] = fmt.Sprintf(`count(doc("notes")//scene[@id = "s%d"]/select-narrow::hit)`, i/2)
		} else {
			out[i] = fmt.Sprintf(`doc("notes")//scene[@id = "s%d"]/select-narrow::hit`, i/2)
		}
	}
	return out
}
