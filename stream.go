package soxq

import (
	"io"

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
	cur xqexec.Cursor
	ro  runObs
}

// Next advances to the next result item, returning false at the end of the
// stream or on error (check Err afterwards).
func (c *Cursor) Next() bool {
	if c.cur.Next() {
		return true
	}
	// End of stream (or error): the drain is complete, so this — not the
	// eventual Close — is the end-to-end latency mark.
	c.ro.finish()
	return false
}

// Value returns the current item; it is valid after a Next that returned
// true.
func (c *Cursor) Value() Value { return Value{it: c.cur.Item()} }

// Err returns the first error the pipeline encountered, or nil.
func (c *Cursor) Err() error { return c.cur.Err() }

// Close releases the pipeline's resources (chunk buffers, parallel workers).
// It is idempotent and safe to call before the stream is drained; it returns
// the pipeline error, if any, so `defer cur.Close()` plus an Err check at
// the end covers every exit path.
func (c *Cursor) Close() error {
	c.cur.Close()
	c.ro.finish()
	return c.cur.Err()
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

// Stream executes the compiled query as a pull-based cursor pipeline:
// FLWOR tuples are evaluated in bounded chunks (Config.StreamChunk), large
// loops optionally partition across Config.Parallelism workers, and
// expression forms that cannot stream fall back to materialised evaluation
// behind the same interface. The drained stream is always item-for-item
// identical to Exec's result. Like Exec, Stream is safe to call from any
// number of goroutines: each call builds an independent pipeline over the
// shared immutable plan.
func (p *Prepared) Stream(cfg Config) (*Cursor, error) {
	chunk := cfg.StreamChunk
	if chunk <= 0 {
		chunk = xqexec.DefaultChunkSize
	}
	ro := p.beginRun(cfg, "stream")
	cur, err := p.pipeline(cfg, chunk, ro.st)
	if err != nil {
		return nil, err
	}
	return &Cursor{cur: cur, ro: ro}, nil
}

// StreamQuery is Stream through the plan cache: the query text is compiled
// (or served from the cache) and executed as a cursor pipeline in one call.
// It is the single-document streaming path of soxqd, where the query text
// arrives per request and repeats across requests.
func (e *Engine) StreamQuery(q string, cfg Config) (*Cursor, error) {
	p, err := e.preparedCached(q)
	if err != nil {
		return nil, err
	}
	return p.Stream(cfg)
}

// pipeline builds the cursor pipeline Exec and Stream share; chunk <= 0
// means unbounded chunks (materialise per operator), which is what a full
// drain wants. st attaches the per-operator collector of a traced run (nil
// otherwise).
func (p *Prepared) pipeline(cfg Config, chunk int, st *xqplan.ExecStats) (xqexec.Cursor, error) {
	ev := p.evaluator(cfg)
	ev.Stats = st
	return xqexec.Build(ev, xqexec.Config{
		ChunkSize:   chunk,
		Parallelism: cfg.Parallelism,
	})
}
