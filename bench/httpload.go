package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"soxq"
)

// served is what the two server workloads share: a soxqd subprocess over the
// fixture's documents, and an in-process engine over the same documents as
// the oracle for its replies.
type served struct {
	fx  *fixture
	srv *serverProc
	dir string
}

func startServed(fx *fixture, e *env) (*served, error) {
	dir, err := os.MkdirTemp(e.tmp, "docs")
	if err != nil {
		return nil, err
	}
	srv, err := startServer(e.soxqd, dir, fx)
	if err != nil {
		return nil, err
	}
	return &served{fx: fx, srv: srv, dir: dir}, nil
}

func (s *served) pid() int { return s.srv.cmd.Process.Pid }

func (s *served) close() error {
	err := s.srv.stop()
	os.RemoveAll(s.dir)
	return err
}

// oracle loads the fixture into an in-process engine.
func oracle(fx *fixture) (*soxq.Engine, error) {
	eng := soxq.New()
	names := make([]string, len(fx.docs))
	for i, d := range fx.docs {
		if err := eng.LoadXML(d.name, d.xml); err != nil {
			return nil, err
		}
		names[i] = d.name
	}
	if fx.corpus != "" {
		if err := eng.CreateCorpus(fx.corpus, names...); err != nil {
			return nil, err
		}
	}
	return eng, nil
}

// corpusStream asks the server for every hit of the corpus, over and over.
type corpusStream struct {
	*served
	c    *client
	url  string
	rows int    // rows of the warm-up reply
	sum  uint64 // FNV-1a of the warm-up reply's body
}

func startCorpus(fx *fixture, e *env, seed uint64) (instance, error) {
	sv, err := startServed(fx, e)
	if err != nil {
		return nil, err
	}
	w := &corpusStream{served: sv, c: newClient()}
	w.url = sv.srv.queryURL(fx.primary, "&corpus="+fx.corpus)
	r, err := w.c.query(w.url) // warm-up
	if err != nil {
		sv.close()
		return nil, err
	}
	w.rows, w.sum = r.rows, r.sum
	return w, nil
}

// verify decodes one reply row by row and compares it with the in-process
// engine's serialisation of the same corpus query.
func (w *corpusStream) verify() error {
	eng, err := oracle(w.fx)
	if err != nil {
		return err
	}
	res, err := eng.QueryCorpus(w.fx.primary, w.fx.corpus, soxq.Config{})
	if err != nil {
		return err
	}
	got, err := w.c.rowsXML(w.url)
	if err != nil {
		return err
	}
	if len(got) != res.Len() || len(got) != w.rows || len(got) == 0 {
		return fmt.Errorf("corpus-stream: server sent %d rows (warm-up %d), engine %d", len(got), w.rows, res.Len())
	}
	for i, x := range got {
		if x != res.Value(i).XML() {
			return fmt.Errorf("corpus-stream: row %d is %q, engine says %q", i, x, res.Value(i).XML())
		}
	}
	return nil
}

func (w *corpusStream) run(n int, traced bool, deadline time.Time) (*samples, error) {
	s := &samples{}
	tr := tracerIf(traced)
	start := time.Now()
	for op := 0; op < n && !time.Now().After(deadline); op++ {
		tr.setOn(op/traceBlock%2 == 1)
		r, err := tracedQuery(tr, op, w.c, w.url)
		s.attempted++
		switch {
		case err != nil:
			if dead := w.srv.alive(); dead != nil {
				return nil, dead
			}
			s.fail(err)
		case r.rows != w.rows || r.sum != w.sum:
			s.fail(fmt.Errorf("reply has %d rows, checksum %x; warm-up had %d, %x", r.rows, r.sum, w.rows, w.sum))
		}
		s.query = append(s.query, r.total)
		s.ttfr = append(s.ttfr, r.first)
		s.traced = append(s.traced, tr.recording())
	}
	s.wall = time.Since(start)
	s.skipped = n - len(s.query)
	s.spans = tr.recorded()
	return s, nil
}

// tracedQuery is client.query under spans: the request, and inside it the
// wait for headers, for the first row, and for the rest of the body, cut
// from the reply's own timestamps so tracing adds no clock reads to the
// request path.
func tracedQuery(tr *tracer, op int, c *client, url string) (reply, error) {
	root := tr.begin("soxqd.request", -1, op)
	r, err := c.query(url)
	tr.end(root)
	if root >= 0 && err == nil {
		t0 := tr.spans[root].Start
		for _, p := range []struct {
			name     string
			from, to time.Duration
		}{
			{"http.headers", 0, r.headers},
			{"http.first_row", r.headers, r.first},
			{"http.body", r.first, r.total},
		} {
			tr.spans = append(tr.spans, span{Name: p.name, Parent: root, Op: op, Start: t0 + int64(p.from), End: t0 + int64(p.to)})
		}
	}
	return r, err
}

// smallMixed sends many tiny queries from two clients.
type smallMixed struct {
	*served
	seed    uint64
	scenes  int
	clients []*client
	hot     []mixedOp
	cached  []mixedOp
	cold    int // rows every cold text returns
}

func startMixed(fx *fixture, e *env, seed uint64) (instance, error) {
	sv, err := startServed(fx, e)
	if err != nil {
		return nil, err
	}
	w := &smallMixed{served: sv, seed: seed, scenes: int(fx.span / fx.sceneWidth)}
	fail := func(err error) (instance, error) { sv.close(); return nil, err }

	// The oracle's row counts are part of set-up: the op loop checks every
	// reply against them.
	eng, err := oracle(fx)
	if err != nil {
		return fail(err)
	}
	for _, q := range hotTexts(w.scenes) {
		res, err := eng.Query(q)
		if err != nil {
			return fail(fmt.Errorf("%s: %w", q, err))
		}
		w.hot = append(w.hot, mixedOp{sv.srv.queryURL(q, ""), res.Len()})
	}
	for _, q := range cachedTexts() {
		res, err := eng.QueryCorpus(q, fx.corpus, soxq.Config{})
		if err != nil {
			return fail(fmt.Errorf("%s: %w", q, err))
		}
		w.cached = append(w.cached, mixedOp{sv.srv.queryURL(q, "&cache=1&corpus="+fx.corpus), res.Len()})
	}
	res, err := eng.Query(coldText(0, w.scenes))
	if err != nil {
		return fail(err)
	}
	w.cold = res.Len()

	for i := 0; i < mixedClients; i++ {
		w.clients = append(w.clients, newClient())
	}
	// Warm-up: one pass of each distinct operation.
	warm := append(append([]mixedOp{{sv.srv.queryURL(coldText(0, w.scenes), ""), w.cold}}, w.hot...), w.cached...)
	for _, op := range warm {
		r, err := w.clients[0].query(op.url)
		if err != nil {
			return fail(err)
		}
		if r.rows != op.rows {
			return fail(fmt.Errorf("warm-up: %s: %d rows, engine says %d", op.url, r.rows, op.rows))
		}
	}
	return w, nil
}

// verify: set-up already held every distinct reply against the in-process
// engine; what is left is that the mix has rows to count at all.
func (w *smallMixed) verify() error {
	if w.cold == 0 || w.hot[0].rows == 0 || w.cached[0].rows == 0 {
		return fmt.Errorf("small-mixed: empty oracle results (cold %d, hot %d, cached %d)", w.cold, w.hot[0].rows, w.cached[0].rows)
	}
	return nil
}

// mix draws client c's request sequence: 60% a Zipf draw from the hot
// texts, 20% a text never sent before, 20% a result-cached corpus
// aggregate. Cold literals are numbered apart per client.
func (w *smallMixed) mix(c, n int) []mixedOp {
	rng := newRand(w.seed, 100+c)
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(w.hot)-1))
	ops := make([]mixedOp, n)
	cold := 1 + c*n
	for i := range ops {
		switch k := rng.Intn(10); {
		case k < 6:
			ops[i] = w.hot[zipf.Uint64()]
		case k < 8:
			ops[i] = mixedOp{w.srv.queryURL(coldText(cold, w.scenes), ""), w.cold}
			cold++
		default:
			ops[i] = w.cached[rng.Intn(len(w.cached))]
		}
	}
	return ops
}

func (w *smallMixed) run(n int, traced bool, deadline time.Time) (*samples, error) {
	per := make([]*samples, len(w.clients))
	mixes := make([][]mixedOp, len(w.clients))
	for c := range w.clients {
		mixes[c] = w.mix(c, n)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c, cl := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &samples{}
			per[c] = s
			tr := tracerIf(traced)
			for op, m := range mixes[c] {
				if op%256 == 0 && time.Now().After(deadline) {
					break
				}
				tr.setOn(op/traceBlock%2 == 1)
				r, err := tracedQuery(tr, c*n+op, cl, m.url)
				s.attempted++
				if err != nil {
					s.fail(err)
					if w.srv.alive() != nil {
						break
					}
				} else if r.rows != m.rows {
					s.fail(fmt.Errorf("%s: %d rows, engine says %d", m.url, r.rows, m.rows))
				}
				s.query = append(s.query, r.total)
				s.ttfr = append(s.ttfr, r.first)
				s.traced = append(s.traced, tr.recording())
			}
			s.spans = tr.recorded()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := w.srv.alive(); err != nil {
		return nil, err
	}
	all := &samples{wall: wall}
	for _, s := range per {
		all.spans = appendSpans(all.spans, s.spans)
		all.query = append(all.query, s.query...)
		all.ttfr = append(all.ttfr, s.ttfr...)
		all.traced = append(all.traced, s.traced...)
		all.attempted += s.attempted
		all.failed += s.failed
		all.skipped += n - len(s.query)
		if all.firstErr == nil {
			all.firstErr = s.firstErr
		}
	}
	return all, nil
}

func (w *smallMixed) close() error {
	for _, c := range w.clients {
		c.close()
	}
	return w.served.close()
}

func (w *corpusStream) close() error {
	w.c.close()
	return w.served.close()
}
