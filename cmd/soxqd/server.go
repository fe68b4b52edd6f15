package main

import (
	"bytes"
	"context"
	"encoding/json"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"soxq"
	"soxq/internal/tree"
	"soxq/internal/xqexec"
)

// serverConfig tunes the corpus server's admission control and per-query
// resource budget.
type serverConfig struct {
	// MaxQueries is the number of queries allowed to execute concurrently.
	// Queries beyond it wait up to QueueTimeout for a slot, then get 503.
	MaxQueries int
	// QueueTimeout is how long an over-limit query waits for a slot.
	QueueTimeout time.Duration
	// MaxChunk caps the per-query stream chunk (Config.StreamChunk): the
	// server's memory budget per query is proportional to the chunk, so
	// requests asking for a larger chunk are clamped here. It bounds a
	// cache=1 run's working memory too; the cached result itself is whole.
	MaxChunk int
}

func (c serverConfig) withDefaults() serverConfig {
	if c.MaxQueries <= 0 {
		c.MaxQueries = 16
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 2 * time.Second
	}
	if c.MaxChunk <= 0 {
		c.MaxChunk = 4096
	}
	return c
}

// server is the soxqd HTTP surface over one Engine: catalog management
// (documents, corpora, annotations), streamed query execution, and the
// engine's ops endpoints, behind a bounded-concurrency admission gate.
type server struct {
	eng *soxq.Engine
	cfg serverConfig

	// sem holds one token per running query; acquisition is the admission
	// gate of handleQuery.
	sem      chan struct{}
	admitted atomic.Uint64
	rejected atomic.Uint64
	inflight atomic.Int64
}

func newServer(eng *soxq.Engine, cfg serverConfig) *server {
	cfg = cfg.withDefaults()
	return &server{eng: eng, cfg: cfg, sem: make(chan struct{}, cfg.MaxQueries)}
}

// handler builds the route table. Catalog mutations are PUT/DELETE/POST on
// the resource they change; queries stream from GET or POST /query; the
// engine's ops surface (/metrics, /debug/...) mounts on the same mux so one
// listener serves both the data plane and the scrape plane.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /catalog", s.handleCatalog)
	mux.HandleFunc("PUT /documents/{name}", s.handlePutDocument)
	mux.HandleFunc("DELETE /documents/{name}", s.handleDeleteDocument)
	mux.HandleFunc("POST /documents/{name}/annotations", s.handleAnnotations)
	mux.HandleFunc("PUT /corpora/{name}", s.handlePutCorpus)
	mux.HandleFunc("DELETE /corpora/{name}", s.handleDeleteCorpus)
	mux.HandleFunc("GET /query", s.handleQuery)
	mux.HandleFunc("POST /query", s.handleQuery)
	ops := s.eng.OpsHandler()
	mux.Handle("GET /metrics", ops)
	mux.Handle("GET /debug/", ops)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"generation": s.eng.CatalogGeneration(),
		"inflight":   s.inflight.Load(),
		"admitted":   s.admitted.Load(),
		"rejected":   s.rejected.Load(),
	})
}

// catalogEntry is one corpus in the catalog listing.
type catalogEntry struct {
	Name    string   `json:"name"`
	Members []string `json:"members"`
}

func (s *server) handleCatalog(w http.ResponseWriter, r *http.Request) {
	corpora := []catalogEntry{}
	for _, name := range s.eng.Corpora() {
		members, err := s.eng.CorpusMembers(name)
		if err != nil {
			continue // dropped between the two calls; the generation shows it
		}
		corpora = append(corpora, catalogEntry{Name: name, Members: members})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": s.eng.CatalogGeneration(),
		"documents":  s.eng.Documents(),
		"corpora":    corpora,
	})
}

// maxDocumentBytes bounds a PUT /documents body; parse errors come from the
// engine, this guard only stops unbounded uploads from buffering in memory.
const maxDocumentBytes = 64 << 20

func (s *server) handlePutDocument(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxDocumentBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, "reading document body: %v", err)
		return
	}
	if err := s.eng.LoadXML(name, data); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"document":   name,
		"generation": s.eng.CatalogGeneration(),
	})
}

func (s *server) handleDeleteDocument(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !slices.Contains(s.eng.Documents(), name) {
		writeError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	s.eng.Unload(name)
	writeJSON(w, http.StatusOK, map[string]any{
		"document":   name,
		"generation": s.eng.CatalogGeneration(),
	})
}

// annotationRequest is the body of POST /documents/{name}/annotations: an
// insert (elem + one or more regions) or a delete (elem + the exact region).
type annotationRequest struct {
	Op      string `json:"op"`
	Elem    string `json:"elem"`
	Regions []struct {
		Start int64 `json:"start"`
		End   int64 `json:"end"`
	} `json:"regions"`
	Start *int64 `json:"start"`
	End   *int64 `json:"end"`
}

func (s *server) handleAnnotations(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !slices.Contains(s.eng.Documents(), name) {
		writeError(w, http.StatusNotFound, "no document %q", name)
		return
	}
	var req annotationRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding annotation request: %v", err)
		return
	}
	switch req.Op {
	case "insert":
		regions := make([]soxq.Region, 0, len(req.Regions)+1)
		for _, reg := range req.Regions {
			regions = append(regions, soxq.Region{Start: reg.Start, End: reg.End})
		}
		if len(regions) == 0 && req.Start != nil && req.End != nil {
			regions = append(regions, soxq.Region{Start: *req.Start, End: *req.End})
		}
		if err := s.eng.InsertAnnotation(name, req.Elem, regions...); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"generation": s.eng.CatalogGeneration(),
		})
	case "delete":
		if req.Start == nil || req.End == nil {
			writeError(w, http.StatusBadRequest, "delete needs start and end")
			return
		}
		n, err := s.eng.DeleteAnnotation(name, req.Elem, *req.Start, *req.End)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"removed":    n,
			"generation": s.eng.CatalogGeneration(),
		})
	default:
		writeError(w, http.StatusBadRequest, "unknown op %q (want insert or delete)", req.Op)
	}
}

func (s *server) handlePutCorpus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req struct {
		Members []string `json:"members"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding corpus request: %v", err)
		return
	}
	if err := s.eng.CreateCorpus(name, req.Members...); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":     name,
		"members":    req.Members,
		"generation": s.eng.CatalogGeneration(),
	})
}

func (s *server) handleDeleteCorpus(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := s.eng.DropCorpus(name); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"corpus":     name,
		"generation": s.eng.CatalogGeneration(),
	})
}

// admit acquires a query slot: immediately if one is free, otherwise by
// waiting up to QueueTimeout. The false return is the 503 path. The
// release func must be called exactly once when the query finishes.
func (s *server) admit(r *http.Request) (release func(), ok bool) {
	acquired := func() func() {
		s.admitted.Add(1)
		s.inflight.Add(1)
		return func() {
			s.inflight.Add(-1)
			<-s.sem
		}
	}
	select {
	case s.sem <- struct{}{}:
		return acquired(), true
	default:
	}
	t := time.NewTimer(s.cfg.QueueTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return acquired(), true
	case <-t.C:
	case <-r.Context().Done():
	}
	s.rejected.Add(1)
	return nil, false
}

// queryText extracts the query: the q form/URL parameter, or — for POSTs
// whose body is not a form — the raw request body.
func queryText(r *http.Request) string {
	if q := r.FormValue("q"); q != "" {
		return q
	}
	if r.Method == http.MethodPost {
		ct := r.Header.Get("Content-Type")
		if !strings.HasPrefix(ct, "application/x-www-form-urlencoded") && !strings.HasPrefix(ct, "multipart/") {
			b, _ := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			return strings.TrimSpace(string(b))
		}
	}
	return ""
}

// intParam parses an integer query parameter, returning def when absent.
func intParam(r *http.Request, name string, def int) (int, error) {
	v := r.FormValue(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s=%q", name, v)
	}
	return n, nil
}

// handleQuery runs one query and streams the result. Parameters:
//
//	q         the query text (or the POST body)
//	corpus    fan the query out across this corpus (optional)
//	format    ndjson (default) or xml
//	chunk     stream chunk size — the per-query memory budget knob,
//	          clamped to the server's -chunk ceiling
//	cache     cache=1 serves a corpus query from the engine's result cache
//	          (materialised; hits skip execution entirely)
//
// Either way the rows reach the client through writeRows, which documents
// the wire formats and the flush policy. The response status is committed
// before execution finishes, so mid-stream failures surface in the stream's
// trailer, not the status code.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := queryText(r)
	if q == "" {
		writeError(w, http.StatusBadRequest, "missing query: pass q= or a POST body")
		return
	}
	corpus := r.FormValue("corpus")
	format := r.FormValue("format")
	if format == "" {
		format = "ndjson"
	}
	if format != "ndjson" && format != "xml" {
		writeError(w, http.StatusBadRequest, "unknown format %q (want ndjson or xml)", format)
		return
	}
	chunk, err := intParam(r, "chunk", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if chunk <= 0 {
		chunk = xqexec.DefaultChunkSize // resolved here so the ceiling clamps it too
	}
	chunk = min(chunk, s.cfg.MaxChunk)
	useCache := r.FormValue("cache") == "1"
	if useCache && corpus == "" {
		writeError(w, http.StatusBadRequest, "cache=1 applies to corpus queries only")
		return
	}

	release, ok := s.admit(r)
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "query capacity exhausted, retry later")
		return
	}
	defer release()

	cfg := soxq.Config{StreamChunk: chunk}
	if useCache {
		res, err := s.eng.QueryCorpus(q, corpus, cfg)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		writeRows(w, format, &resultRows{ctx: r.Context(), res: res})
		return
	}
	prep, err := s.eng.Prepare(q)
	var cur *soxq.Cursor
	if err == nil {
		cur, err = prep.Run(r.Context(), corpus, cfg)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	defer cur.Close()
	writeRows(w, format, cur)
}

// Flush policy of writeRows. Framed rows collect in one buffer, which is
// handed to the ResponseWriter and flushed to the client when it reaches a
// threshold — flushMin at first, doubling per flush up to flushMax, so the
// first rows leave early and a long reply settles on few, large writes — or
// when flushInterval has passed since the last flush, so a slowly produced
// stream still arrives incrementally; the clock is read once per run of at
// most flushCheckRows rows. A reply that never reaches flushMin is
// written once when the query ends, with no explicit flush. Every write
// carries a deadline writeStall ahead, so a client that stops reading (takes
// longer than that to accept at most flushMax bytes) costs its query slot
// for at most that long.
const (
	flushMin       = 4 << 10
	flushMax       = 32 << 10
	flushInterval  = 5 * time.Millisecond
	flushCheckRows = 64
	writeStall     = 10 * time.Second
)

// rowSource is what writeRows drains: a streamed *soxq.Cursor, or a
// materialised result behind resultRows. AppendRows is the contract of
// soxq.Cursor.AppendRows.
type rowSource interface {
	AppendRows(dst []byte, n, limit int, asJSON bool, prefix, suffix string) ([]byte, int)
	Err() error
}

// resultRows serves a materialised (cached) result as a rowSource. No query
// run reads ctx for it, so it reads ctx itself, once per run of rows.
type resultRows struct {
	ctx context.Context
	res *soxq.Result
	n   int // rows handed out so far
	err error
}

func (r *resultRows) AppendRows(dst []byte, n, limit int, asJSON bool, prefix, suffix string) ([]byte, int) {
	if r.err = r.ctx.Err(); r.err != nil {
		return dst, 0
	}
	k := 0
	for ; k < n && r.n < r.res.Len() && (k == 0 || len(dst) < limit); k, r.n = k+1, r.n+1 {
		dst = append(dst, prefix...)
		if v := r.res.Value(r.n); asJSON {
			dst = v.AppendJSON(dst)
		} else {
			dst = v.AppendXML(dst)
		}
		dst = append(dst, suffix...)
	}
	return dst, k
}

func (r *resultRows) Err() error { return r.err }

// writeRows drains src into the response; it is the one row loop behind the
// streamed and the cache=1 path, so clients need not care which served them.
// NDJSON emits one {"xml":...} object per item and a trailing
// {"done":true,"rows":N} (or {"rows":N,"error":...}) record; XML wraps the
// items, one per line, in a <results> element that ends in an <error>
// element on failure. Rows go a run at a time straight into the reused
// output buffer, an NDJSON row's XML written as a JSON string in the same
// pass — no per-row string, scratch, encoder call or write. A client that
// disconnects cancels the request context, which ends the rows at the run's
// next chunk boundary and gets no trailer; a write that fails or misses its
// deadline stops the drain too. Either way the caller's Close and release follow.
func writeRows(w http.ResponseWriter, format string, src rowSource) {
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	xmlOut := format == "xml"
	out := make([]byte, 0, 512) // a small reply costs one allocation, a large one grows it
	prefix, suffix := "", "\n"
	if xmlOut {
		w.Header().Set("Content-Type", "application/xml; charset=utf-8")
		out = append(out, "<results>\n"...)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
		prefix, suffix = `{"xml":`, "}\n"
	}
	rows, limit, last := 0, flushMin, time.Now()
	for {
		var k int
		if out, k = src.AppendRows(out, flushCheckRows, limit, !xmlOut, prefix, suffix); k == 0 {
			break
		}
		rows += k
		if len(out) < limit && time.Since(last) < flushInterval {
			continue
		}
		_ = rc.SetWriteDeadline(time.Now().Add(writeStall)) // fails only off a connection: nothing to stall
		if _, err := w.Write(out); err != nil {
			return // client gone or stalled; nothing sensible left to write
		}
		if flusher != nil {
			flusher.Flush()
		}
		out, limit, last = out[:0], min(2*limit, flushMax), time.Now()
	}
	switch err := src.Err(); {
	case errors.Is(err, context.Canceled):
		return
	case xmlOut && err != nil:
		b := bytes.NewBuffer(append(out, "<error>"...))
		xml.EscapeText(b, []byte(err.Error()))
		out = append(b.Bytes(), "</error>\n</results>\n"...)
	case xmlOut:
		out = append(out, "</results>\n"...)
	case err != nil:
		out = append(out, `{"rows":`...)
		out = strconv.AppendInt(out, int64(rows), 10)
		out = append(out, `,"error":`...)
		out = tree.AppendJSONString(out, err.Error())
		out = append(out, "}\n"...)
	default:
		out = append(out, `{"done":true,"rows":`...)
		out = strconv.AppendInt(out, int64(rows), 10)
		out = append(out, "}\n"...)
	}
	_ = rc.SetWriteDeadline(time.Now().Add(writeStall)) // also bounds the server's final flush
	w.Write(out)
}
