package main

// Tests of the row writer below the HTTP layer: the JSON string escaper the
// NDJSON error trailer uses, against encoding/json, and the writer's
// allocation behaviour over a discarding ResponseWriter.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"soxq"
	"soxq/internal/tree"
)

// jsonStringTable is every class of input encoding/json treats specially,
// plus runs it copies through; it also seeds FuzzAppendJSONString and
// FuzzWireRows.
func jsonStringTable() []string {
	table := []string{
		"", "plain", `"`, `\`, `\\"`, "<", ">", "&", "<a href=\"x\">&amp;</a>",
		"\u2028", "\u2029", "a\u2028b\u2029c", "\u2027\u202a", "\u00e9\u20ac\U0001F600", "\ufffd",
		"\xff", "a\xffb", "\xc3", "\xe2\x82", "\xf0\x9f\x98", "\x80\x80", "\xed\xa0\x80",
		"\x7f", strings.Repeat("long ascii run ", 400),
		strings.Repeat("<hit start=\"10\" end=\"15\"/>", 50),
	}
	for b := 0; b < 0x20; b++ {
		table = append(table, string(rune(b)), "a"+string(rune(b))+"b")
	}
	return table
}

// checkJSONString fails unless tree.AppendJSONString(s) is what json.Marshal
// (HTML escaping on, as json.NewEncoder defaults) produces for string(s), and
// a dst prefix survives.
func checkJSONString(t *testing.T, s []byte) {
	t.Helper()
	want, err := json.Marshal(string(s))
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.AppendJSONString(nil, string(s)); !bytes.Equal(got, want) {
		t.Errorf("AppendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
	}
	if got := tree.AppendJSONString([]byte(`{"xml":`), string(s)); string(got) != `{"xml":`+string(want) {
		t.Errorf("AppendJSONString(%q) onto a prefix = %s", s, got)
	}
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range jsonStringTable() {
		checkJSONString(t, []byte(s))
	}
	// The forms this toolchain's encoding/json writes, spelled out.
	got := tree.AppendJSONString(nil, "\b\f\n\r\t\x00\x1f<>&\xff\u2028\"\\")
	if want := `"\b\f\n\r\t\u0000\u001f\u003c\u003e\u0026\ufffd\u2028\"\\"`; string(got) != want {
		t.Errorf("escapes = %s, want %s", got, want)
	}
}

func FuzzAppendJSONString(f *testing.F) {
	for _, s := range jsonStringTable() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, s []byte) { checkJSONString(t, s) })
}

// FuzzWireRows serves a fuzzed document's //node() and //@* rows in both
// formats, streamed and with cache=1, each at the default chunk and at
// chunks of 1 and 7. Every NDJSON line but the last decodes
// to its row's Value.XML (as encoding/json carries it) and holds nothing
// else, the last is the one trailer and counts them, and both bodies are
// byte for byte what the per-row encoder wrote (legacyBody). Input LoadXML
// rejects is skipped.
func FuzzWireRows(f *testing.F) {
	escape := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	for _, s := range jsonStringTable() {
		f.Add([]byte(`<d a="` + escape.Replace(s) + `">` + escape.Replace(s) + `<!--` + s + `--></d>`))
	}
	for _, d := range wireDocs {
		f.Add([]byte(d))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		eng := soxq.New()
		if err := eng.LoadXML("f.xml", doc); err != nil {
			t.Skip()
		}
		if err := eng.CreateCorpus("f", "f.xml"); err != nil {
			t.Fatal(err)
		}
		h := newServer(eng, serverConfig{}).handler()
		for _, q := range []string{`doc("f")//node()`, `doc("f")//@*`} {
			res, err := eng.QueryCorpus(q, "f", soxq.Config{})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			rows := res.Values()
			for _, format := range []string{"ndjson", "xml"} {
				want := legacyBody(format, rows, nil)
				// Chunks of 1 and 7 end the row writer's runs at odd batch
				// boundaries.
				for _, params := range []string{"", "&cache=1", "&chunk=1", "&cache=1&chunk=1", "&chunk=7", "&cache=1&chunk=7"} {
					target := "/query?corpus=f&format=" + format + params + "&q=" + queryParam(q)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
					body := rec.Body.String()
					if format == "ndjson" {
						checkNDJSONRows(t, target, body, rows)
					}
					if rec.Code != 200 || body != want {
						t.Fatalf("%s: status %d, body\n%s\nwant\n%s", target, rec.Code, body, want)
					}
				}
			}
		}
	})
}

// checkNDJSONRows fails unless body is one {"xml":...} line per row, decoding
// to the row's XML, and then exactly one {"done":true,"rows":N} trailer.
func checkNDJSONRows(t *testing.T, what, body string, rows []soxq.Value) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) != len(rows)+1 {
		t.Fatalf("%s: %d lines for %d rows", what, len(lines), len(rows))
	}
	strict := func(line string, v any) error {
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		return dec.Decode(v)
	}
	for i, v := range rows {
		var row struct {
			XML *string `json:"xml"`
		}
		// JSON carries an invalid UTF-8 byte (raw in comments and PIs) as
		// U+FFFD: compare with the row's XML after that same round trip.
		var want string
		if b, err := json.Marshal(v.XML()); err != nil || json.Unmarshal(b, &want) != nil {
			t.Fatalf("%s: row %q does not round-trip through encoding/json", what, v.XML())
		}
		if err := strict(lines[i], &row); err != nil || row.XML == nil || *row.XML != want {
			t.Fatalf("%s: line %d %s (%v), want the row %q", what, i, lines[i], err, v.XML())
		}
	}
	var trailer struct {
		Done bool `json:"done"`
		Rows int  `json:"rows"`
	}
	if err := strict(lines[len(rows)], &trailer); err != nil || !trailer.Done || trailer.Rows != len(rows) {
		t.Fatalf("%s: trailer %s (%v), want done with %d rows", what, lines[len(rows)], err, len(rows))
	}
}

// sinkResponse is a ResponseWriter that discards the body, counting what it
// is handed; onWrite, when set, runs before each Write is counted. Like a
// server connection's response it takes write deadlines (and ignores them).
type sinkResponse struct {
	header   http.Header
	writes   int
	flushes  int
	bytes    int
	maxWrite int
	onWrite  func()
}

func newSinkResponse() *sinkResponse { return &sinkResponse{header: http.Header{}} }

func (s *sinkResponse) Header() http.Header { return s.header }
func (s *sinkResponse) WriteHeader(int)     {}
func (s *sinkResponse) Flush()              { s.flushes++ }

func (s *sinkResponse) SetWriteDeadline(time.Time) error { return nil }
func (s *sinkResponse) Write(p []byte) (int, error) {
	if s.onWrite != nil {
		s.onWrite()
	}
	s.writes++
	s.bytes += len(p)
	s.maxWrite = max(s.maxWrite, len(p))
	return len(p), nil
}

// TestWireAllocs pins the row writer's allocation behaviour: on the 120 000
// row corpus query the whole request — cursor pipeline included — stays
// under 0.01 allocations per row and its writes settle at the 32 KiB
// ceiling; a one-row reply, atomic or node, is handed over in one small
// write and allocates no more than the per-row encoder it replaced
// (legacyWrite, measured in the same binary).
func TestWireAllocs(t *testing.T) {
	eng := benchEngine(t)
	req := httptest.NewRequest(http.MethodGet, "/query", nil)
	serve := func(w http.ResponseWriter) {
		prep, err := eng.Prepare(benchQuery)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := prep.StreamCorpus("bench", soxq.Config{StreamChunk: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		writeRows(w, "ndjson", cur)
	}

	const rows = benchDocs * benchRowsPerMember
	sink := newSinkResponse()
	serve(sink) // also warms the plan cache, region indexes and arena pool
	if sink.maxWrite < flushMax || sink.maxWrite > flushMax+256 {
		t.Errorf("largest write %d bytes, want the %d-byte ceiling plus at most one row", sink.maxWrite, flushMax)
	}
	if sink.flushes != sink.writes-1 {
		t.Errorf("%d writes, %d flushes: every write but the last should flush", sink.writes, sink.flushes)
	}
	perRun := testing.AllocsPerRun(3, func() { serve(newSinkResponse()) })
	if perRow := perRun / rows; perRow > 0.01 {
		t.Errorf("%.0f allocations for %d rows = %.4f per row, budget 0.01", perRun, rows, perRow)
	}

	for _, q := range []string{`count(doc("doc00.xml")//scene)`, `(doc("doc00.xml")//hit)[1]`} {
		res, err := eng.Query(q)
		if err != nil || res.Len() != 1 {
			t.Fatalf("%s: %v, want one row", q, err)
		}
		sink := newSinkResponse()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		writeRows(sink, "ndjson", &resultRows{ctx: req.Context(), res: res})
		runtime.ReadMemStats(&after)
		if sink.writes != 1 || sink.flushes != 0 || sink.bytes > 256 {
			t.Errorf("%s: %d writes, %d flushes, %d bytes; want one small unflushed write",
				q, sink.writes, sink.flushes, sink.bytes)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > flushMin {
			t.Errorf("%s: a one-row reply allocated %d bytes; it must not pay for a large reply's buffer", q, grew)
		}
		vals := res.Values()
		legacy := testing.AllocsPerRun(100, func() {
			w := newSinkResponse()
			w.Header().Set("Content-Type", "application/x-ndjson")
			legacyWrite(w, "ndjson", vals, nil)
		})
		got := testing.AllocsPerRun(100, func() { writeRows(newSinkResponse(), "ndjson", &resultRows{ctx: req.Context(), res: res}) })
		if got > legacy {
			t.Errorf("%s: a one-row reply allocates %.0f times, the per-row encoder it replaced %.0f", q, got, legacy)
		}
	}
}

// TestWireResultRowsRuns: the cache=1 source keeps the run contract the
// streamed cursor keeps. Call after call, with n of 1, 3 and 64 and limits
// of 0, 1, 40 and none, in both forms, resultRows writes the next rows framed
// by prefix and suffix as Value writes them, at most n of them, and stops
// after the row that takes the buffer to the limit.
func TestWireResultRowsRuns(t *testing.T) {
	eng := soxq.New()
	members := make([]string, len(wireDocs))
	for i, d := range wireDocs {
		members[i] = fmt.Sprintf("w%d.xml", i)
		if err := eng.LoadXML(members[i], []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.CreateCorpus("wire", members...); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{wireQuery, `doc("wire")//node()`} {
		res, err := eng.QueryCorpus(q, "wire", soxq.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rows := res.Values()
		for _, asJSON := range []bool{false, true} {
			src := &resultRows{ctx: context.Background(), res: res}
			for call, pos := 0, 0; ; call++ {
				n, limit := []int{1, 3, 64}[call%3], []int{0, 1, 40, math.MaxInt}[call%4]
				want, wantK := []byte("p"), 0
				for ; wantK < n && pos+wantK < len(rows) && (wantK == 0 || len(want) < limit); wantK++ {
					if v := rows[pos+wantK]; asJSON {
						want = append(v.AppendJSON(append(want, '<')), ">\n"...)
					} else {
						want = append(v.AppendXML(append(want, '<')), ">\n"...)
					}
				}
				got, k := src.AppendRows([]byte("p"), n, limit, asJSON, "<", ">\n")
				if k != wantK || !bytes.Equal(got, want) {
					t.Fatalf("%s json=%v rows %d..: AppendRows(n=%d, limit=%d) wrote %d rows %q, want %d rows %q",
						q, asJSON, pos, n, limit, k, got, wantK, want)
				}
				if k == 0 {
					break
				}
				pos += k
			}
		}
	}
}
