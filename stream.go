package soxq

import (
	"context"
	"io"
	"math"

	"soxq/internal/xqeval"
	"soxq/internal/xqexec"
	"soxq/internal/xqplan"
)

// Cursor is a streamed query result: items are produced on demand through a
// bounded-memory pipeline instead of materialised into a Result, so a query
// whose result is millions of items holds only a chunk of them at a time.
// Iterate in the database/sql.Rows style:
//
//	cur, err := prep.Stream(soxq.Config{})
//	if err != nil { ... }
//	defer cur.Close()
//	for cur.Next() {
//		fmt.Println(cur.Value().XML())
//	}
//	if err := cur.Err(); err != nil { ... }
//
// A Cursor is single-consumer; open one cursor per goroutine. Any number of
// cursors over the same Prepared may run concurrently.
type Cursor struct {
	rows xqexec.Reader
	ro   runObs
	view runView // a single-document run's snapshot view
}

// Next advances to the next result item, returning false at the end of the
// stream or on error (check Err afterwards).
func (c *Cursor) Next() bool {
	if c.rows.Next() {
		return true
	}
	// End of stream (or error): the drain is complete, so this — not the
	// eventual Close — is the end-to-end latency mark.
	c.ro.finish()
	return false
}

// Value returns the current item; it is valid after a Next that returned
// true.
func (c *Cursor) Value() Value { return Value{it: c.rows.Item()} }

// AppendRows appends up to n of the next rows, all of one batch, to dst, each
// as prefix, what Value().AppendXML — or, with json, AppendJSON — writes for
// it, and suffix; a node run takes one serialiser call. It stops after the
// row that takes dst to limit bytes or more, and returns dst and the rows
// written, 0 only at the end (check Err). The last row written is current.
func (c *Cursor) AppendRows(dst []byte, n, limit int, json bool, prefix, suffix string) ([]byte, int) {
	b := c.rows.Peek(n)
	k := 0
	switch {
	case b.D != nil:
		dst, k = b.D.AppendRows(dst, b.Pres, limit, json, prefix, suffix)
	case len(b.Items) == 0:
		c.ro.finish() // the drain is complete, as in Next
	default:
		for ; k < len(b.Items) && (k == 0 || len(dst) < limit); k++ {
			dst = append(dst, prefix...)
			if v := (Value{it: b.Items[k]}); json {
				dst = v.AppendJSON(dst)
			} else {
				dst = v.AppendXML(dst)
			}
			dst = append(dst, suffix...)
		}
	}
	c.rows.Skip(k)
	return dst, k
}

// Err returns the first error the pipeline encountered, or nil.
func (c *Cursor) Err() error { return c.rows.Err() }

// Close releases the pipeline's resources (arenas, chunk buffers).
// It is idempotent and safe to call before the stream is drained; it returns
// the pipeline error, if any, so `defer cur.Close()` plus an Err check at
// the end covers every exit path.
func (c *Cursor) Close() error {
	c.rows.Close()
	c.ro.finish()
	return c.rows.Err()
}

// WriteXML serialises the remaining items of the stream to w — nodes as XML
// markup, atomic values as their string values, items separated by single
// spaces (the streamed equivalent of Result.String). Serialisation is itself
// a pipeline sink: each item is appended to one reused buffer as it is
// produced, and the buffer is handed to w whenever it passes 4 KiB.
func (c *Cursor) WriteXML(w io.Writer) error {
	var buf []byte
	first := true
	for c.Next() {
		if !first {
			buf = append(buf, ' ')
		}
		first = false
		if buf = c.Value().AppendXML(buf); len(buf) >= 4096 {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if err := c.Err(); err != nil || len(buf) == 0 {
		return err
	}
	_, err := w.Write(buf)
	return err
}

// Run executes the compiled query as a pull-based cursor pipeline, or with a
// non-empty corpus once per member document (see StreamCorpus). FLWOR tuples
// are evaluated in bounded chunks (Config.StreamChunk); forms that cannot
// stream fall back to materialised evaluation behind the same interface. The
// pipeline runs on the goroutine that drains the cursor and reads ctx at its
// chunk boundaries, never per row: once ctx is done the stream ends with
// ctx.Err() after the rows already delivered (a materialising operator such
// as order by finishes first). Run is safe to call from any number of
// goroutines: each call builds an independent pipeline over the shared plan.
func (p *Prepared) Run(ctx context.Context, corpus string, cfg Config) (*Cursor, error) {
	return p.run(ctx, corpus, cfg, "stream")
}

// Stream is Run with no corpus and no context to cancel it. The drained
// stream is always item-for-item identical to Exec's result.
func (p *Prepared) Stream(cfg Config) (*Cursor, error) {
	return p.Run(context.Background(), "", cfg)
}

// run is the one run path behind every entry point: it starts the telemetry
// of latency mode ("exec", "stream" or "analyze"), which the cursor finishes,
// and builds one pipeline over the cursor's snapshot view, or one per corpus
// member, all chunked by cfg.StreamChunk.
func (p *Prepared) run(ctx context.Context, corpus string, cfg Config, mode string) (*Cursor, error) {
	c := &Cursor{ro: p.beginRun(cfg, mode)}
	var root xqexec.Cursor
	var err error
	if corpus == "" {
		c.view.eng, c.view.opts = p.eng, p.plan.Options()
		root, err = p.build(ctx, cfg, c.ro.st, &c.view)
	} else {
		root, err = p.corpusMerge(ctx, corpus, cfg, c.ro.st)
	}
	if err != nil {
		return nil, err
	}
	c.rows = xqexec.NewReader(root)
	return c, nil
}

// build builds one pipeline: documents and indexes resolve through rv, so it
// drains one snapshot generation even while mutations land. st is the run's
// per-operator collector (nil unless the run is analyzed or traced).
func (p *Prepared) build(ctx context.Context, cfg Config, st *xqplan.ExecStats, rv *runView) (xqexec.Cursor, error) {
	ev := &xqeval.Evaluator{
		Plan:     p.plan,
		Resolver: rv.resolve,
		IndexFor: rv.indexFor,
		BlobFor:  p.eng.blobFor,
		Strategy: cfg.Mode.strategy(),
		Pushdown: !cfg.NoPushdown,
		Stats:    st,
	}
	if t := p.eng.tel; t != nil {
		ev.Met = t.met // the join counters; nil with telemetry off
	}
	return xqexec.Build(ctx, ev, xqexec.Config{ChunkSize: cfg.StreamChunk})
}

// drain materialises the run that run returned (c, or its error err) into a
// Result: the one drain behind Exec, ExecCorpus and Analyze.
func drain(c *Cursor, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	items := c.rows.Fill(nil, math.MaxInt)
	if err := c.Close(); err != nil {
		return nil, err
	}
	return &Result{items: items}, nil
}
