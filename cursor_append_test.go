package soxq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
)

// escapeDoc holds values that need XML escapes, JSON escapes, and both, and
// U+2028, which JSON escapes and XML does not.
const escapeDoc = `<doc>
  <scene id="s&lt;1&quot;" start="0" end="99">a &amp; b "c" \ ` + "\xe2\x80\xa8" + `</scene>
  <hit id="h&#9;1" start="10" end="20">x &gt; y</hit>
  <hit id="h2" start="40" end="50"><!--note--></hit>
</doc>`

// rowCheck counts the rows checkRows saw by batch kind: node runs read
// straight from the batch, and items read through Value.
type rowCheck struct{ unboxed, boxed int }

// checkRows drains cur and fails unless, row for row, Cursor.AppendXML and
// Cursor.AppendJSON write what Value().AppendXML and Value().AppendJSON
// write onto the same non-empty dst, the JSON decodes to Value().XML(), and,
// when want is non-nil, the row equals want's row. It reports the first
// difference with t.Errorf, so readers on other goroutines may call it.
func (rc *rowCheck) checkRows(t *testing.T, what string, cur *Cursor, want *Result) {
	t.Helper()
	defer cur.Close()
	n := 0
	for ; cur.Next(); n++ {
		v := cur.Value()
		if d, _ := cur.rows.Node(); d != nil {
			rc.unboxed++
		} else {
			rc.boxed++
		}
		gotXML, wantXML := cur.AppendXML([]byte("p")), v.AppendXML([]byte("p"))
		gotJSON, wantJSON := cur.AppendJSON([]byte("p")), v.AppendJSON([]byte("p"))
		if !bytes.Equal(gotXML, wantXML) || !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s row %d: cursor %s / %s, value %s / %s", what, n, gotXML, gotJSON, wantXML, wantJSON)
			return
		}
		var s string
		if err := json.Unmarshal(gotJSON[1:], &s); err != nil || s != v.XML() {
			t.Errorf("%s row %d: JSON %s decodes to %q (%v), XML is %q", what, n, gotJSON[1:], s, err, v.XML())
			return
		}
		if want != nil {
			if n >= want.Len() || want.Value(n).XML() != v.XML() {
				t.Errorf("%s row %d: %q differs from Exec's result", what, n, v.XML())
				return
			}
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
// cursor's unboxed serialisers agree with Value's and the rows with Exec's.
// Node runs, attribute and atomic items all occur.
func TestCursorAppendUnboxed(t *testing.T) {
	eng := streamEngine(t)
	if err := eng.LoadXML("esc.xml", []byte(escapeDoc)); err != nil {
		t.Fatal(err)
	}
	if err := eng.CreateCorpus("both", "stable.xml", "esc.xml"); err != nil {
		t.Fatal(err)
	}
	queries := append(streamCorpus,
		`doc("esc.xml")//scene/select-narrow::hit`, `doc("esc.xml")//@*`, `doc("esc.xml")//node()`,
		`for $h in doc("esc.xml")//hit return (string($h), $h/@id)`)
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
