package main

// Tests of the row writer below the HTTP layer: the NDJSON string escaper
// against encoding/json, and the writer's allocation behaviour over a
// discarding ResponseWriter.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"soxq"
)

// jsonStringTable is every class of input encoding/json treats specially,
// plus runs it copies through; it also seeds FuzzAppendJSONString.
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

// checkJSONString fails unless appendJSONString(s) is what json.Marshal
// (HTML escaping on, as json.NewEncoder defaults) produces for string(s), and
// a dst prefix survives.
func checkJSONString(t *testing.T, s []byte) {
	t.Helper()
	want, err := json.Marshal(string(s))
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSONString(nil, s); !bytes.Equal(got, want) {
		t.Errorf("appendJSONString(%q) = %s, encoding/json writes %s", s, got, want)
	}
	if got := appendJSONString([]byte(`{"xml":`), s); string(got) != `{"xml":`+string(want) {
		t.Errorf("appendJSONString(%q) onto a prefix = %s", s, got)
	}
}

func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range jsonStringTable() {
		checkJSONString(t, []byte(s))
	}
	// The forms this toolchain's encoding/json writes, spelled out.
	got := appendJSONString(nil, []byte("\b\f\n\r\t\x00\x1f<>&\xff\u2028\"\\"))
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

// BenchmarkAppendJSONString escapes one row of the corpus query's shape into
// a reused buffer, as writeRows does per row: no allocation once warm.
func BenchmarkAppendJSONString(b *testing.B) {
	row := []byte(`<hit start="123410" end="123415"/>`)
	dst := appendJSONString(nil, row)
	b.ReportAllocs()
	for b.Loop() {
		dst = appendJSONString(dst[:0], row)
	}
}

// sinkResponse is a ResponseWriter that discards the body, counting what it
// is handed; onWrite, when set, runs before each Write is counted.
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
		cur, err := eng.StreamQueryCorpus(benchQuery, "bench", soxq.Config{StreamChunk: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		writeRows(w, req, "ndjson", cur)
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
		writeRows(sink, req, "ndjson", &resultRows{res: res})
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
		got := testing.AllocsPerRun(100, func() { writeRows(newSinkResponse(), req, "ndjson", &resultRows{res: res}) })
		if got > legacy {
			t.Errorf("%s: a one-row reply allocates %.0f times, the per-row encoder it replaced %.0f", q, got, legacy)
		}
	}
}
