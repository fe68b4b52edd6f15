package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"soxq"
	"soxq/internal/spawncheck"
)

// testDoc builds member i's document: 3 scenes with 2 contained hits each,
// ids tagged with the member index (mirrors the engine's corpus test corpus).
func testDoc(i int) string {
	var sb strings.Builder
	sb.WriteString("<doc>")
	for s := 0; s < 3; s++ {
		base := s * 100
		fmt.Fprintf(&sb, `<scene id="d%d-s%d" start="%d" end="%d"/>`, i, s, base, base+99)
		fmt.Fprintf(&sb, `<hit id="d%d-s%d-a" start="%d" end="%d"/>`, i, s, base+10, base+20)
		fmt.Fprintf(&sb, `<hit id="d%d-s%d-b" start="%d" end="%d"/>`, i, s, base+30, base+40)
	}
	sb.WriteString("</doc>")
	return sb.String()
}

const testQuery = `for $h in doc("news")//scene/select-narrow::hit return string($h/@id)`

// hitsPerDoc is testQuery's row count per member: 3 scenes x 2 narrow hits.
const hitsPerDoc = 6

// newTestServer loads n corpus members, defines corpus "news", and serves
// the soxqd handler from an httptest server.
func newTestServer(t testing.TB, n int, cfg serverConfig) (*soxq.Engine, *server, *httptest.Server) {
	t.Helper()
	eng := soxq.New()
	members := make([]string, n)
	for i := 0; i < n; i++ {
		members[i] = fmt.Sprintf("doc%02d.xml", i)
		if err := eng.LoadXML(members[i], []byte(testDoc(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.CreateCorpus("news", members...); err != nil {
		t.Fatal(err)
	}
	s := newServer(eng, cfg)
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return eng, s, ts
}

// getJSON GETs url and decodes the JSON body into out, returning the status.
func getJSON(t testing.TB, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// request performs one request and returns the status and body; unlike the
// t.Fatal-based helpers it is safe to call from exercise goroutines.
func request(method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func doReq(t testing.TB, method, url string, body []byte) (int, []byte) {
	t.Helper()
	code, b, err := request(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, b
}

// ndjsonTrailer is the last record of an NDJSON reply, as the tests decode
// it and as the per-row encoder writeRows replaced (legacyWrite) encoded it.
type ndjsonTrailer struct {
	Done  bool   `json:"done,omitempty"`
	Rows  int    `json:"rows"`
	Error string `json:"error,omitempty"`
}

// parseNDJSON reads an NDJSON query response: the data rows and the trailer.
func parseNDJSON(body io.Reader) (rows []string, trailer ndjsonTrailer, err error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var row struct {
			XML   string `json:"xml"`
			Done  bool   `json:"done"`
			Rows  int    `json:"rows"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return rows, trailer, fmt.Errorf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if row.Done || row.Error != "" {
			trailer = ndjsonTrailer{Done: row.Done, Rows: row.Rows, Error: row.Error}
			continue
		}
		rows = append(rows, row.XML)
	}
	return rows, trailer, sc.Err()
}

func drainNDJSON(t testing.TB, body io.Reader) ([]string, ndjsonTrailer) {
	t.Helper()
	rows, trailer, err := parseNDJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	return rows, trailer
}

// TestServerCatalog covers the catalog lifecycle over HTTP: listing, loading
// a document, defining and dropping a corpus, unloading, and the generation
// moving on every change.
func TestServerCatalog(t *testing.T) {
	_, _, ts := newTestServer(t, 2, serverConfig{})

	var cat struct {
		Generation uint64         `json:"generation"`
		Documents  []string       `json:"documents"`
		Corpora    []catalogEntry `json:"corpora"`
	}
	if code := getJSON(t, ts.URL+"/catalog", &cat); code != 200 {
		t.Fatalf("GET /catalog = %d", code)
	}
	if len(cat.Documents) != 2 || cat.Documents[0] != "doc00.xml" || cat.Documents[1] != "doc01.xml" {
		t.Fatalf("documents = %v, want sorted doc00/doc01", cat.Documents)
	}
	if len(cat.Corpora) != 1 || cat.Corpora[0].Name != "news" || len(cat.Corpora[0].Members) != 2 {
		t.Fatalf("corpora = %+v", cat.Corpora)
	}
	gen0 := cat.Generation

	// Load a third document over HTTP; the generation must move.
	if code, body := doReq(t, http.MethodPut, ts.URL+"/documents/doc02.xml", []byte(testDoc(2))); code != 200 {
		t.Fatalf("PUT document = %d: %s", code, body)
	}
	if code, body := doReq(t, http.MethodPut, ts.URL+"/corpora/all",
		[]byte(`{"members":["doc00.xml","doc01.xml","doc02.xml"]}`)); code != 200 {
		t.Fatalf("PUT corpus = %d: %s", code, body)
	}
	if code := getJSON(t, ts.URL+"/catalog", &cat); code != 200 {
		t.Fatal("catalog after load")
	}
	if len(cat.Documents) != 3 || len(cat.Corpora) != 2 {
		t.Fatalf("after load: %d documents, %d corpora", len(cat.Documents), len(cat.Corpora))
	}
	if cat.Generation <= gen0 {
		t.Fatalf("generation %d did not move past %d", cat.Generation, gen0)
	}

	// Malformed document: engine parse error surfaces as 400.
	if code, _ := doReq(t, http.MethodPut, ts.URL+"/documents/bad.xml", []byte("<doc>")); code != 400 {
		t.Fatalf("PUT malformed document = %d, want 400", code)
	}
	// Corpus over a missing member: 400.
	if code, _ := doReq(t, http.MethodPut, ts.URL+"/corpora/broken", []byte(`{"members":["nope.xml"]}`)); code != 400 {
		t.Fatalf("PUT bad corpus = %d, want 400", code)
	}

	// Drop the corpus, unload the document; unknown names 404.
	if code, _ := doReq(t, http.MethodDelete, ts.URL+"/corpora/all", nil); code != 200 {
		t.Fatalf("DELETE corpus = %d", code)
	}
	if code, _ := doReq(t, http.MethodDelete, ts.URL+"/corpora/all", nil); code != 404 {
		t.Fatalf("DELETE dropped corpus = %d, want 404", code)
	}
	if code, _ := doReq(t, http.MethodDelete, ts.URL+"/documents/doc02.xml", nil); code != 200 {
		t.Fatalf("DELETE document = %d", code)
	}
	if code, _ := doReq(t, http.MethodDelete, ts.URL+"/documents/doc02.xml", nil); code != 404 {
		t.Fatalf("DELETE unloaded document = %d, want 404", code)
	}
}

// TestServerQueryNDJSON pins the streamed NDJSON wire format for both the
// corpus and single-document paths: one {"xml":...} row per item in corpus
// order, then {"done":true,"rows":N}.
func TestServerQueryNDJSON(t *testing.T) {
	_, _, ts := newTestServer(t, 3, serverConfig{})
	resp, err := http.Get(ts.URL + "/query?corpus=news&q=" + queryParam(testQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /query = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	rows, trailer := drainNDJSON(t, resp.Body)
	if !trailer.Done || trailer.Rows != 3*hitsPerDoc || len(rows) != 3*hitsPerDoc {
		t.Fatalf("rows = %d, trailer = %+v, want %d rows", len(rows), trailer, 3*hitsPerDoc)
	}
	// Corpus order: member 0's hits first, member 2's last.
	if rows[0] != "d0-s0-a" || rows[len(rows)-1] != "d2-s2-b" {
		t.Fatalf("merge order wrong: first %q last %q", rows[0], rows[len(rows)-1])
	}

	// Single-document path (no corpus), query via POST body.
	q := strings.ReplaceAll(testQuery, `doc("news")`, `doc("doc01.xml")`)
	resp2, err := http.Post(ts.URL+"/query", "application/xquery", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	rows, trailer = drainNDJSON(t, resp2.Body)
	if !trailer.Done || len(rows) != hitsPerDoc || rows[0] != "d1-s0-a" {
		t.Fatalf("single-doc rows = %v, trailer = %+v", rows, trailer)
	}
}

// TestServerQueryXML pins the chunked-XML wire format.
func TestServerQueryXML(t *testing.T) {
	_, _, ts := newTestServer(t, 2, serverConfig{})
	resp, err := http.Get(ts.URL + "/query?corpus=news&format=xml&q=" +
		queryParam(`doc("news")//scene/select-narrow::hit`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	if !strings.HasPrefix(body, "<results>\n") || !strings.HasSuffix(body, "</results>\n") {
		t.Fatalf("not a <results> document: %q", body)
	}
	if n := strings.Count(body, "<hit "); n != 2*hitsPerDoc {
		t.Fatalf("%d hit elements, want %d", n, 2*hitsPerDoc)
	}
}

func queryParam(q string) string { return url.QueryEscape(q) }

// TestServerQueryErrors covers the 4xx surface of /query.
func TestServerQueryErrors(t *testing.T) {
	_, _, ts := newTestServer(t, 1, serverConfig{})
	cases := []struct {
		name string
		url  string
		want int
	}{
		{"missing q", "/query", 400},
		{"syntax error", "/query?q=for%20%24x%20in", 400},
		{"unknown corpus", "/query?corpus=nope&q=" + queryParam(testQuery), 400},
		{"cache without corpus", "/query?cache=1&q=" + queryParam(testQuery), 400},
		{"bad format", "/query?format=yaml&q=" + queryParam(testQuery), 400},
		{"bad chunk", "/query?chunk=many&q=" + queryParam(testQuery), 400},
	}
	for _, c := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := getJSON(t, ts.URL+c.url, &e); code != c.want {
			t.Errorf("%s: status %d, want %d", c.name, code, c.want)
		}
		if e.Error == "" {
			t.Errorf("%s: no error message", c.name)
		}
	}
}

// TestServerQueryCached pins the result-cache path end to end: a repeated
// cache=1 corpus query hits the engine's result cache (no re-execution), and
// an annotation write through the server invalidates it.
func TestServerQueryCached(t *testing.T) {
	eng, _, ts := newTestServer(t, 2, serverConfig{})
	url := ts.URL + "/query?cache=1&corpus=news&q=" + queryParam(testQuery)
	get := func() ndjsonTrailer {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("status %d", resp.StatusCode)
		}
		_, trailer := drainNDJSON(t, resp.Body)
		return trailer
	}
	if tr := get(); tr.Rows != 2*hitsPerDoc {
		t.Fatalf("first run: %+v", tr)
	}
	h0, m0, _ := eng.ResultCacheStats()
	if tr := get(); tr.Rows != 2*hitsPerDoc {
		t.Fatalf("second run: %+v", tr)
	}
	h1, m1, _ := eng.ResultCacheStats()
	if h1 != h0+1 || m1 != m0 {
		t.Fatalf("second run hits/misses %d/%d -> %d/%d, want a pure cache hit", h0, m0, h1, m1)
	}

	// An annotation insert through the server bumps the generation, so the
	// next cached query misses and sees the new row.
	if code, body := doReq(t, http.MethodPost, ts.URL+"/documents/doc00.xml/annotations",
		[]byte(`{"op":"insert","elem":"hit","regions":[{"start":41,"end":45}]}`)); code != 200 {
		t.Fatalf("POST annotation = %d: %s", code, body)
	}
	if tr := get(); tr.Rows != 2*hitsPerDoc+1 {
		t.Fatalf("post-mutation run rows = %d, want %d", tr.Rows, 2*hitsPerDoc+1)
	}
	_, m2, _ := eng.ResultCacheStats()
	if m2 != m1+1 {
		t.Fatalf("mutation did not invalidate: misses %d -> %d", m1, m2)
	}

	// Delete it again; the row count returns to the base.
	code, body := doReq(t, http.MethodPost, ts.URL+"/documents/doc00.xml/annotations",
		[]byte(`{"op":"delete","elem":"hit","start":41,"end":45}`))
	if code != 200 {
		t.Fatalf("POST delete = %d: %s", code, body)
	}
	var del struct {
		Removed int `json:"removed"`
	}
	if err := json.Unmarshal(body, &del); err != nil || del.Removed != 1 {
		t.Fatalf("delete response %s (err %v)", body, err)
	}
	if tr := get(); tr.Rows != 2*hitsPerDoc {
		t.Fatalf("post-delete rows = %d", tr.Rows)
	}

	// Annotation errors: unknown document 404, bad op 400.
	if code, _ := doReq(t, http.MethodPost, ts.URL+"/documents/nope.xml/annotations",
		[]byte(`{"op":"insert","elem":"x","start":1,"end":2}`)); code != 404 {
		t.Fatalf("annotation on unknown doc = %d, want 404", code)
	}
	if code, _ := doReq(t, http.MethodPost, ts.URL+"/documents/doc00.xml/annotations",
		[]byte(`{"op":"upsert"}`)); code != 400 {
		t.Fatalf("bad op = %d, want 400", code)
	}
}

// TestServerAnnotationBadName: client input is not an element name until the
// engine says so. A name that would serialise to ill-formed XML is a 400
// carrying the engine's typed error, and the catalog does not move.
func TestServerAnnotationBadName(t *testing.T) {
	eng, _, ts := newTestServer(t, 1, serverConfig{})
	gen := eng.CatalogGeneration()
	for _, elem := range []string{"a b", "<x", "1st", "", `x y=\"1\"`} {
		code, body := doReq(t, http.MethodPost, ts.URL+"/documents/doc00.xml/annotations",
			[]byte(`{"op":"insert","elem":"`+elem+`","start":1,"end":2}`))
		if code != 400 || !strings.Contains(string(body), "invalid annotation element name") {
			t.Fatalf("insert elem %q = %d: %s, want 400 invalid annotation element name", elem, code, body)
		}
	}
	if got := eng.CatalogGeneration(); got != gen {
		t.Fatalf("rejected inserts moved the generation %d -> %d", gen, got)
	}
	// The document still serialises to XML that loads.
	res, err := eng.Query(`doc("doc00.xml")`)
	if err != nil {
		t.Fatal(err)
	}
	if err := soxq.New().LoadXML("again.xml", []byte(res.String())); err != nil {
		t.Fatalf("document no longer well-formed: %v", err)
	}
}

// TestServerAdmission pins the admission gate: with every slot held, a query
// waits QueueTimeout and then gets 503 with Retry-After; once a slot frees,
// queries run again and the rejection is visible on /healthz.
func TestServerAdmission(t *testing.T) {
	_, s, ts := newTestServer(t, 1, serverConfig{MaxQueries: 1, QueueTimeout: 50 * time.Millisecond})
	// Occupy the only slot directly — equivalent to a long-running query.
	s.sem <- struct{}{}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/query?corpus=news&q="+queryParam(testQuery), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated query = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	<-s.sem
	resp2, err := http.Get(ts.URL + "/query?corpus=news&q=" + queryParam(testQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("freed query = %d, want 200", resp2.StatusCode)
	}
	if _, trailer := drainNDJSON(t, resp2.Body); !trailer.Done {
		t.Fatalf("freed query trailer %+v", trailer)
	}
	var health struct {
		Rejected uint64 `json:"rejected"`
		Admitted uint64 `json:"admitted"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Rejected == 0 || health.Admitted == 0 {
		t.Fatalf("healthz counters %+v", health)
	}
}

// TestServerDisconnectNoLeak pins the mid-stream disconnect contract: a
// client that walks away after the first rows must not leave the query
// pipeline's goroutines (or its admission slot) behind.
func TestServerDisconnectNoLeak(t *testing.T) {
	_, s, ts := newTestServer(t, 4, serverConfig{})
	baseline := runtime.NumGoroutine()
	for round := 0; round < 10; round++ {
		ctx, cancel := context.WithCancel(context.Background())
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			ts.URL+"/query?corpus=news&chunk=1&q="+queryParam(testQuery), nil)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		client := &http.Client{}
		resp, err := client.Do(req)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		// Read one row, then abandon the stream.
		br := bufio.NewReader(resp.Body)
		if _, err := br.ReadString('\n'); err != nil {
			t.Fatal(err)
		}
		cancel()
		resp.Body.Close()
		client.CloseIdleConnections()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() != 0 || runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("after disconnects: %d goroutines (baseline %d), %d inflight",
				runtime.NumGoroutine(), baseline, s.inflight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// smallSendBuffers shrinks the send buffer of every accepted connection, so
// a client that stops reading blocks the server's writes after kilobytes,
// not megabytes.
type smallSendBuffers struct{ net.Listener }

func (l smallSendBuffers) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetWriteBuffer(4 << 10)
	}
	return c, err
}

// TestServerStalledReaderReleasesSlot pins the per-flush write deadline: a
// client that reads one row and then neither reads nor hangs up gets its
// connection closed once a flush stalls past writeStall, the query's only
// slot comes back for the next query, and no goroutine the server started
// outlives it.
func TestServerStalledReaderReleasesSlot(t *testing.T) {
	spawncheck.Run(func(started func() int) {
		s := newServer(soxq.New(), serverConfig{MaxQueries: 1, QueueTimeout: 50 * time.Millisecond})
		ts := httptest.NewUnstartedServer(s.handler())
		ts.Listener = smallSendBuffers{ts.Listener}
		ts.Start()

		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		q := queryParam(`for $i in 1 to 10000000 return "a row long enough to fill the socket buffers quickly"`)
		fmt.Fprintf(conn, "GET /query?q=%s HTTP/1.1\r\nHost: soxqd\r\n\r\n", q)
		br := bufio.NewReader(conn)
		for line := ""; !strings.HasPrefix(line, `{"xml":`); {
			if line, err = br.ReadString('\n'); err != nil {
				t.Fatalf("no first row: %v", err)
			}
			line = strings.TrimLeft(line, "0123456789abcdef\r\n") // chunk size lines
		}

		// The client stalls, connection open: the slot must come back.
		deadline := time.Now().Add(writeStall + 10*time.Second)
		for s.inflight.Load() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("a stalled reader still holds the query slot")
			}
			time.Sleep(10 * time.Millisecond)
		}
		resp, err := http.Get(ts.URL + "/query?q=" + queryParam("1 to 3"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("next query = %d, want 200: the slot did not come back", resp.StatusCode)
		}

		// The stalled connection was closed: draining it ends, before the
		// reply's end, in EOF or a reset rather than a read timeout.
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		rest, err := io.ReadAll(br)
		if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("the server kept the stalled connection open")
		}
		if bytes.Contains(rest, []byte(`"done":true`)) {
			t.Fatal("a stalled reader got the whole reply")
		}
		conn.Close()
		http.DefaultClient.CloseIdleConnections()
		ts.Close()
		for n := started(); n != 0; n = started() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines started by the server outlive it", n)
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestServerConcurrentExercise is the issue's concurrent server test: N
// clients stream corpus queries (some disconnecting mid-stream) while one
// writer mutates annotations over HTTP and another loads/unloads a spare
// document, all against one engine. Row counts must stay within the
// mutation envelope, every completed stream must end with a clean trailer,
// and nothing may leak afterwards.
func TestServerConcurrentExercise(t *testing.T) {
	const members = 3
	_, s, ts := newTestServer(t, members, serverConfig{MaxQueries: 32})
	baseline := runtime.NumGoroutine()
	base := members * hitsPerDoc

	errc := make(chan error, 64)
	stop := make(chan struct{})
	var readers, churn sync.WaitGroup

	// Readers: stream the corpus query with varying chunk sizes,
	// disconnecting mid-stream every third iteration.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rnd := rand.New(rand.NewSource(int64(r)))
			client := &http.Client{}
			defer client.CloseIdleConnections()
			for i := 0; i < 25; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				url := fmt.Sprintf("%s/query?corpus=news&chunk=%d&q=%s",
					ts.URL, 1+rnd.Intn(8), queryParam(testQuery))
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
				resp, err := client.Do(req)
				if err != nil {
					cancel()
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if resp.StatusCode != 200 {
					resp.Body.Close()
					cancel()
					errc <- fmt.Errorf("reader %d: status %d", r, resp.StatusCode)
					return
				}
				if i%3 == 2 {
					// Abandon mid-stream.
					bufio.NewReader(resp.Body).ReadString('\n')
					cancel()
					resp.Body.Close()
					continue
				}
				rows, trailer, err := parseNDJSON(resp.Body)
				resp.Body.Close()
				cancel()
				if err != nil {
					errc <- fmt.Errorf("reader %d: %v", r, err)
					return
				}
				if trailer.Error != "" {
					errc <- fmt.Errorf("reader %d: stream error %q", r, trailer.Error)
					return
				}
				// The writer adds at most one extra hit per member at a time.
				if len(rows) < base || len(rows) > base+members {
					errc <- fmt.Errorf("reader %d: %d rows outside [%d,%d]", r, len(rows), base, base+members)
					return
				}
			}
		}(r)
	}

	// Writer: insert/delete one annotation per member through the server.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			doc := fmt.Sprintf("doc%02d.xml", i%members)
			code, body, err := request(http.MethodPost, ts.URL+"/documents/"+doc+"/annotations",
				[]byte(`{"op":"insert","elem":"hit","regions":[{"start":41,"end":45}]}`))
			if err != nil || code != 200 {
				errc <- fmt.Errorf("writer insert: %d %s %v", code, body, err)
				return
			}
			code, body, err = request(http.MethodPost, ts.URL+"/documents/"+doc+"/annotations",
				[]byte(`{"op":"delete","elem":"hit","start":41,"end":45}`))
			if err != nil || code != 200 {
				errc <- fmt.Errorf("writer delete: %d %s %v", code, body, err)
				return
			}
		}
	}()

	// Catalog churn: load and unload a document that is not a corpus member,
	// so streams keep working while the catalog generation races forward.
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			code, body, err := request(http.MethodPut, ts.URL+"/documents/spare.xml", []byte(testDoc(99)))
			if err != nil || code != 200 {
				errc <- fmt.Errorf("loader: %d %s %v", code, body, err)
				return
			}
			code, body, err = request(http.MethodDelete, ts.URL+"/documents/spare.xml", nil)
			if err != nil || code != 200 {
				errc <- fmt.Errorf("unloader: %d %s %v", code, body, err)
				return
			}
		}
	}()

	readers.Wait()
	close(stop)
	churn.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	deadline := time.Now().Add(10 * time.Second)
	for s.inflight.Load() != 0 || runtime.NumGoroutine() > baseline {
		// The churn helpers ride http.DefaultClient; its idle keep-alive
		// connections hold client-side goroutines that are not leaks.
		http.DefaultClient.CloseIdleConnections()
		if time.Now().After(deadline) {
			t.Fatalf("after exercise: %d goroutines (baseline %d), %d inflight",
				runtime.NumGoroutine(), baseline, s.inflight.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// wireDocs are the members of the golden tests' corpus "wire": attribute and
// text values that need XML escapes, JSON escapes, and both.
var wireDocs = []string{
	`<doc><scene id="s0" start="0" end="99"/><note start="10" end="20" text="a &lt; b &amp; &quot;c&quot; &#9;tab">x &amp; y &lt; z &gt; "q" \ back</note></doc>`,
	`<doc><scene id="s1" start="0" end="99"/><note start="30" end="40" text="plain"/><!--c--></doc>`,
}

// wireQuery returns, per note: the element (XML and JSON escapes in one
// row), an attribute item, and string, integer, decimal and boolean atomics.
const wireQuery = `for $n in doc("wire")//note return ($n, $n/@text, string($n), 1, 1.5, true())`

// legacyWrite writes a reply the way the per-row code writeRows replaced
// did: json.Encoder (HTML escaping on) and Value.XML per row, the trailer
// through the same encoder, the XML error through xml.EscapeText.
func legacyWrite(w io.Writer, format string, rows []soxq.Value, runErr error) {
	enc := json.NewEncoder(w)
	if format == "xml" {
		io.WriteString(w, "<results>\n")
	}
	for _, v := range rows {
		if format == "xml" {
			io.WriteString(w, v.XML()+"\n")
		} else {
			enc.Encode(struct {
				XML string `json:"xml"`
			}{v.XML()})
		}
	}
	switch {
	case format == "xml" && runErr != nil:
		var b strings.Builder
		xml.EscapeText(&b, []byte(runErr.Error()))
		fmt.Fprintf(w, "<error>%s</error>\n</results>\n", b.String())
	case format == "xml":
		io.WriteString(w, "</results>\n")
	case runErr != nil:
		enc.Encode(ndjsonTrailer{Rows: len(rows), Error: runErr.Error()})
	default:
		enc.Encode(ndjsonTrailer{Done: true, Rows: len(rows)})
	}
}

func legacyBody(format string, rows []soxq.Value, runErr error) string {
	var b strings.Builder
	legacyWrite(&b, format, rows, runErr)
	return b.String()
}

// TestWireGolden: for streamed x cache=1 and ndjson x xml the response body
// is byte for byte what the per-row encoder produced — node, attribute and
// atomic rows, XML and JSON escapes together — and a mid-stream error ends
// both formats with the trailer it always had.
func TestWireGolden(t *testing.T) {
	eng, _, ts := newTestServer(t, 1, serverConfig{})
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
	res, err := eng.QueryCorpus(wireQuery, "wire", soxq.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 12 {
		t.Fatalf("wire query has %d rows, want 12", res.Len())
	}
	// legacyBody goes through this build's Value.XML, so pin the bytes of a
	// node, an attribute and an atomic row as literals too.
	const firstRows = `{"xml":"\u003cnote start=\"10\" end=\"20\" text=\"a \u0026lt; b \u0026amp; \u0026quot;c\u0026quot; \u0026#9;tab\"\u003ex \u0026amp; y \u0026lt; z \u0026gt; \"q\" \\ back\u003c/note\u003e"}
{"xml":"text=\"a \u0026lt; b \u0026amp; \u0026quot;c\u0026quot; \u0026#9;tab\""}
{"xml":"x \u0026 y \u003c z \u003e \"q\" \\ back"}
{"xml":"1"}
{"xml":"1.5"}
{"xml":"true"}
`
	if got := legacyBody("ndjson", res.Values(), nil); !strings.HasPrefix(got, firstRows) {
		t.Fatalf("rows changed:\n%s\nwant prefix\n%s", got, firstRows)
	}
	for _, format := range []string{"ndjson", "xml"} {
		want := legacyBody(format, res.Values(), nil)
		for _, cache := range []string{"", "&cache=1"} {
			code, body := doReq(t, http.MethodGet,
				ts.URL+"/query?corpus=wire&format="+format+cache+"&q="+queryParam(wireQuery), nil)
			if code != 200 || string(body) != want {
				t.Errorf("format=%s%s: status %d, body\n%s\nwant\n%s", format, cache, code, body, want)
			}
		}
	}

	// Mid-stream error: the first two 1024-row chunks arrive, the third
	// fails, and the trailer carries the row count and the error.
	const failing = `for $i in 1 to 3000 return if ($i lt 2500) then $i else $i idiv 0`
	cur, err := eng.StreamQuery(failing, soxq.Config{StreamChunk: 1024})
	if err != nil {
		t.Fatal(err)
	}
	var rows []soxq.Value
	for cur.Next() {
		rows = append(rows, cur.Value())
	}
	runErr := cur.Close()
	if len(rows) != 2048 || runErr == nil || !strings.Contains(runErr.Error(), "FOAR0001") {
		t.Fatalf("failing query: %d rows, error %v; want 2048 rows and FOAR0001", len(rows), runErr)
	}
	for _, format := range []string{"ndjson", "xml"} {
		code, body := doReq(t, http.MethodGet, ts.URL+"/query?format="+format+"&q="+queryParam(failing), nil)
		if want := legacyBody(format, rows, runErr); code != 200 || string(body) != want {
			t.Errorf("mid-stream error, format=%s: status %d, body ends %q, want %q",
				format, code, body[max(0, len(body)-120):], want[len(want)-120:])
		}
	}
	_, body := doReq(t, http.MethodGet, ts.URL+"/query?q="+queryParam(failing), nil)
	if !bytes.HasSuffix(body, []byte(`{"rows":2048,"error":"`+runErr.Error()+"\"}\n")) {
		t.Errorf("NDJSON error trailer: body ends %q", body[max(0, len(body)-120):])
	}
}

// TestWireFlushing pins the two ends of the flush policy over real HTTP: a
// reply that never reaches flushMin is written once, unflushed, so net/http
// still gives it a Content-Length; the 120 000-row reply is chunked and its
// first row reaches the writer long before the query has produced its last.
func TestWireFlushing(t *testing.T) {
	_, _, ts := newTestServer(t, 2, serverConfig{})
	for _, format := range []string{"ndjson", "xml"} {
		resp, err := http.Get(ts.URL + "/query?corpus=news&format=" + format + "&q=" + queryParam(testQuery))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("format=%s: %d-byte reply has Content-Length %d, Transfer-Encoding %v",
				format, len(body), resp.ContentLength, resp.TransferEncoding)
		}
	}

	eng := benchEngine(t)
	cur, err := eng.StreamQueryCorpus(benchQuery, "bench", soxq.Config{StreamChunk: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	src := &countingRows{rowSource: cur}
	sink := newSinkResponse()
	producedAtFirstWrite := -1
	sink.onWrite = func() {
		if producedAtFirstWrite < 0 {
			producedAtFirstWrite = src.n
		}
	}
	writeRows(sink, httptest.NewRequest(http.MethodGet, "/query", nil), "ndjson", src)
	const rows = benchDocs * benchRowsPerMember
	if src.n != rows || producedAtFirstWrite < 1 || producedAtFirstWrite > 200 {
		t.Errorf("first write after %d of %d rows, want within the first 4 KiB of rows", producedAtFirstWrite, src.n)
	}
}

// countingRows counts the rows a rowSource has produced.
type countingRows struct {
	rowSource
	n int
}

func (c *countingRows) Next() bool {
	if !c.rowSource.Next() {
		return false
	}
	c.n++
	return true
}

// TestWireCachedCancel: the cache=1 path runs the same loop as the streamed
// one, so a cached reply to a request whose client has gone stops at the
// next row instead of serialising the whole result, and the handler returns
// its admission slot.
func TestWireCachedCancel(t *testing.T) {
	s := newServer(benchEngine(t), serverConfig{MaxQueries: 1})
	target := "/query?cache=1&corpus=bench&q=" + queryParam(benchQuery)
	full := newSinkResponse()
	s.handler().ServeHTTP(full, httptest.NewRequest(http.MethodGet, target, nil))
	if full.writes < 10 || full.flushes != full.writes-1 {
		t.Fatalf("cached reply: %d writes, %d flushes; want it streamed incrementally", full.writes, full.flushes)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := newSinkResponse()
	cut.onWrite = cancel // the client goes away as the first bytes arrive
	s.handler().ServeHTTP(cut, httptest.NewRequest(http.MethodGet, target, nil).WithContext(ctx))
	if cut.writes != 1 || cut.bytes >= full.bytes/100 {
		t.Errorf("cancelled cached reply: %d writes, %d of %d bytes; want it to stop after the first write",
			cut.writes, cut.bytes, full.bytes)
	}
	if n, held := s.inflight.Load(), len(s.sem); n != 0 || held != 0 {
		t.Errorf("after the cancelled reply: inflight %d, %d admission slots held", n, held)
	}
	// With MaxQueries 1, a leaked slot would turn this into a 503.
	again := httptest.NewRecorder()
	s.handler().ServeHTTP(again, httptest.NewRequest(http.MethodGet, "/query?q=1", nil))
	if again.Code != 200 {
		t.Errorf("query after the cancelled reply = %d, want 200", again.Code)
	}
}
