// Command soxqd is the soxq corpus server: a long-running process that
// holds a catalog of stand-off annotated documents and named corpora and
// serves streamed XQuery over HTTP.
//
//	soxqd -addr :8080 \
//	      -doc a.xml=testdata/a.xml -doc b.xml=testdata/b.xml \
//	      -corpus news=a.xml,b.xml
//
// The HTTP surface (see docs/SERVER.md for the full reference):
//
//	GET  /catalog                         the catalog: generation, documents, corpora
//	PUT  /documents/{name}                load the XML request body as a document
//	DELETE /documents/{name}              unload a document
//	POST /documents/{name}/annotations    insert or delete an annotation
//	PUT  /corpora/{name}                  define a corpus over loaded documents
//	DELETE /corpora/{name}                drop a corpus definition
//	GET|POST /query                       run a query, results streamed
//	GET  /healthz                         liveness + admission counters
//	GET  /metrics, /debug/...             the engine's ops surface
//
// Queries stream: results are written as NDJSON rows (or a chunked XML
// document with format=xml) while the cursor pipeline produces them, so a
// result of millions of items never materialises server-side. A corpus
// query fans out one shard per member document and merges shard streams
// back in corpus order; each query runs on its request's goroutine.
// Admission control bounds concurrent queries at -max-queries with a
// -queue-timeout wait; the per-query stream chunk (the memory budget) is
// clamped to -chunk.
//
// Shutdown is graceful: SIGINT/SIGTERM stops the listener immediately and
// gives in-flight streams -drain to finish before force-closing them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"soxq"
	"soxq/internal/blob"
	"soxq/internal/httpserve"
)

type repeated []string

func (r *repeated) String() string     { return strings.Join(*r, ",") }
func (r *repeated) Set(v string) error { *r = append(*r, v); return nil }

func main() {
	var docs, blobs, declares, corpora repeated
	addr := flag.String("addr", ":8080", "listen address")
	flag.Var(&docs, "doc", "load a document at startup: name=path (repeatable)")
	flag.Var(&blobs, "blob", "attach a BLOB to a document: name=path (repeatable)")
	flag.Var(&declares, "declare", "engine-wide stand-off option: option=value (repeatable)")
	flag.Var(&corpora, "corpus", "define a corpus at startup: name=member,member,... (repeatable)")
	maxQueries := flag.Int("max-queries", 16, "queries allowed to run concurrently; more wait, then get 503")
	queueTimeout := flag.Duration("queue-timeout", 2*time.Second, "how long an over-limit query waits for a slot before 503")
	maxChunk := flag.Int("chunk", 4096, "ceiling for a query's stream chunk size (the per-query memory budget)")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown grace for in-flight streams")
	flag.Parse()

	eng := soxq.New()
	for _, d := range declares {
		opt, val, ok := strings.Cut(d, "=")
		if !ok {
			fatal("-declare wants option=value, got %q", d)
		}
		fatalIf(eng.Declare(opt, val))
	}
	for _, spec := range docs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("-doc wants name=path, got %q", spec)
		}
		fatalIf(eng.LoadXMLFile(name, path))
	}
	for _, spec := range blobs {
		name, path, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("-blob wants name=path, got %q", spec)
		}
		store, err := blob.OpenFile(path)
		fatalIf(err)
		defer store.Close()
		eng.SetBlob(name, store)
	}
	for _, spec := range corpora {
		name, members, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("-corpus wants name=member,member,..., got %q", spec)
		}
		fatalIf(eng.CreateCorpus(name, strings.Split(members, ",")...))
	}

	srv := newServer(eng, serverConfig{
		MaxQueries:   *maxQueries,
		QueueTimeout: *queueTimeout,
		MaxChunk:     *maxChunk,
	})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "soxqd: serving %d documents, %d corpora on %s (interrupt to stop)\n",
		len(eng.Documents()), len(eng.Corpora()), *addr)
	// WriteTimeout stays 0: query streams legitimately run as long as the
	// client keeps reading. A client that disconnects cancels its request
	// context, which the query run reads at its chunk boundaries, so even a
	// query that produces no rows frees its slot at the next chunk; a
	// stalled reader is cut off by writeRows' per-flush deadline. Neither
	// needs a wall clock for the whole response.
	fatalIf(httpserve.ListenAndServe(ctx, *addr, srv.handler(), httpserve.Options{
		ShutdownGrace: *drain,
	}))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "soxqd: "+format+"\n", args...)
	os.Exit(1)
}

func fatalIf(err error) {
	if err != nil {
		fatal("%v", err)
	}
}
