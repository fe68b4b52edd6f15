package soxq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"soxq/internal/xqexec"
)

// escapeDoc holds values that need XML escapes, JSON escapes, and both, and
// U+2028, which JSON escapes and XML does not, and a node of every kind.
const escapeDoc = `<doc>
  <scene id="s&lt;1&quot;" start="0" end="99">a &amp; b "c" \ ` + "\xe2\x80\xa8" + `</scene>
  <hit id="h&#9;1" start="10" end="20">x &gt; y</hit>
  <hit id="h2" start="40" end="50"><!--note--><?pi a<b "c"?></hit>
</doc>`

// rowCheck counts the rows checkRows saw by batch kind: node runs written
// straight from the batch, and items written through Value.
type rowCheck struct {
	unboxed, boxed int
	calls          int // AppendRows calls so far, which pick each call's n, limit and form
}

// wantRun is what Cursor.AppendRows must write for the rows of b onto dst:
// prefix, Value.AppendXML or, with json, Value.AppendJSON of the row, and
// suffix, row after row. ends[i] is len(out) after row i.
func wantRun(dst []byte, b xqexec.Batch, json bool, prefix, suffix string) (out []byte, ends []int) {
	for i := range b.Len() {
		dst = append(dst, prefix...)
		if v := (Value{it: b.Item(i)}); json {
			dst = v.AppendJSON(dst)
		} else {
			dst = v.AppendXML(dst)
		}
		dst = append(dst, suffix...)
		ends = append(ends, len(dst))
	}
	return dst, ends
}

// checkRows drains cur through Cursor.AppendRows and fails unless every run
// it writes is wantRun's bytes for the rows the run covers, cut after the row
// that takes the buffer to the limit: n cycles through 1, 3 and more than any
// batch holds; the limit through 0, 1, no limit, and one below, at and one
// above a row's end; the form between XML and JSON onto a non-empty dst. Each
// JSON row must decode to Value().XML(), and, when want is non-nil, each row
// must equal want's row. It reports the first difference with t.Errorf, so
// readers on other goroutines may call it.
func (rc *rowCheck) checkRows(t *testing.T, what string, cur *Cursor, want *Result) {
	t.Helper()
	defer cur.Close()
	n := 0
	for ; ; rc.calls++ {
		c := rc.calls
		runLen, asJSON := []int{1, 3, math.MaxInt}[c%3], c%2 == 1
		prefix, suffix := "<", ">\n"
		if asJSON {
			prefix, suffix = `{"xml":`, "}\n"
		}
		b := cur.rows.Peek(runLen)
		full, ends := wantRun([]byte("p"), b, asJSON, prefix, suffix)
		limit := math.MaxInt
		if len(ends) > 0 {
			end := ends[c/3%len(ends)]
			limit = []int{0, 1, math.MaxInt, end - 1, end, end + 1}[c/2%6]
		}
		wantK := len(ends)
		for i, e := range ends {
			if e >= limit {
				wantK = i + 1
				break
			}
		}
		got, k := cur.AppendRows([]byte("p"), runLen, limit, asJSON, prefix, suffix)
		if k != wantK || (k > 0 && !bytes.Equal(got, full[:ends[k-1]])) {
			t.Errorf("%s rows %d..: AppendRows(n=%d, limit=%d, json=%v) wrote %d rows %q, want %d rows %q",
				what, n, runLen, limit, asJSON, k, got, wantK, full)
			return
		}
		if k == 0 {
			break
		}
		if b.D != nil {
			rc.unboxed += k
		} else {
			rc.boxed += k
		}
		for i := range k {
			v := Value{it: b.Item(i)}
			if asJSON {
				start := 1
				if i > 0 {
					start = ends[i-1]
				}
				row := full[start:ends[i]]
				var dec struct{ XML string }
				if err := json.Unmarshal(row, &dec); err != nil || dec.XML != v.XML() {
					t.Errorf("%s row %d: JSON %s decodes to %q (%v), XML is %q", what, n, row, dec.XML, err, v.XML())
					return
				}
			}
			if want != nil && (n >= want.Len() || want.Value(n).XML() != v.XML()) {
				t.Errorf("%s row %d: %q differs from Exec's result", what, n, v.XML())
				return
			}
			n++
		}
		if cur.Value().XML() != (Value{it: b.Item(k - 1)}).XML() {
			t.Errorf("%s row %d: the current row is not the last row written", what, n-1)
			return
		}
	}
	if err := cur.Err(); err != nil {
		t.Errorf("%s: %v", what, err)
		return
	}
	if want != nil && n != want.Len() {
		t.Errorf("%s: %d rows, Exec %d", what, n, want.Len())
		return
	}
}

// TestCursorAppendUnboxed: for every query of the stream corpus over two
// documents, streamed at chunk 1, 7 and 1024 and as a corpus stream, the
// cursor's run writer agrees with Value's serialisers and the rows with
// Exec's. Node runs of every kind, attribute and atomic items all occur, and
// so does a run holding a root element that was childless until an insert
// grew it (its size is the snapshot's, not the shared column's).
func TestCursorAppendUnboxed(t *testing.T) {
	eng := streamEngine(t)
	if err := eng.LoadXML("esc.xml", []byte(escapeDoc)); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateCorpus("both", "stable.xml", "esc.xml"); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadXML("grown.xml", []byte(`<doc start="0" end="9"/>`)); err != nil {
		t.Fatal(err)
	}
	if err := eng.InsertAnnotation("grown.xml", "hit", Region{Start: 1, End: 2}); err != nil {
		t.Fatal(err)
	}
	queries := append(streamCorpus,
		`doc("esc.xml")//scene/select-narrow::hit`, `doc("esc.xml")//@*`, `doc("esc.xml")//node()`,
		`doc("esc.xml")`, `for $h in doc("esc.xml")//hit return (string($h), $h/@id)`,
		`doc("grown.xml")//node()`, `doc("grown.xml")//hit/select-wide::doc`)
	var rc rowCheck
	for _, q := range queries {
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", q, err)
		}
		want, err := prep.Exec(Config{})
		if err != nil {
			continue // the error path is TestStreamExecEquivalence's
		}
		for _, chunk := range []int{1, 7, 1024} {
			cur, err := prep.Stream(Config{StreamChunk: chunk})
			if err != nil {
				t.Fatal(err)
			}
			rc.checkRows(t, fmt.Sprintf("%s chunk=%d", q, chunk), cur, want)
		}
	}
	for _, q := range []string{
		`doc("both")//scene/select-narrow::hit`, `doc("both")//hit/@id`,
		`for $s in doc("both")//scene return string($s/@id)`,
	} {
		want, err := eng.QueryCorpus(q, "both", Config{})
		if err != nil {
			t.Fatal(err)
		}
		cur, err := streamQueryCorpus(eng, q, "both", Config{StreamChunk: 7})
		if err != nil {
			t.Fatal(err)
		}
		rc.checkRows(t, "corpus "+q, cur, want)
	}
	if rc.unboxed == 0 || rc.boxed == 0 {
		t.Fatalf("%d rows from node runs, %d from items; want both kinds", rc.unboxed, rc.boxed)
	}
}

// TestCursorAppendUnderWrites: two readers drain pinned snapshots through
// the unboxed path while a writer inserts annotations; run it under -race.
func TestCursorAppendUnderWrites(t *testing.T) {
	eng := streamEngine(t)
	const q = `for $s in doc("stable.xml")//scene return ($s/select-narrow::hit, $s/select-narrow::hit/@id)`
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	const drains, writes = 30, 40
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rc rowCheck
			for i := range drains {
				cur, err := prep.Stream(Config{StreamChunk: 1 + 6*g})
				if err != nil {
					t.Error(err)
					return
				}
				rc.checkRows(t, fmt.Sprintf("reader %d drain %d", g, i), cur, nil)
			}
		}()
	}
	for i := range writes {
		if err := eng.InsertAnnotation("stable.xml", "hit", Region{Start: int64(i), End: int64(i + 5)}); err != nil {
			t.Error(err)
			break
		}
	}
	wg.Wait()
}
