package main

import (
	"fmt"
	"os"
	"time"

	"soxq"
)

// annotateBurst writes marks into one large document and reads the layer it
// is writing, on one goroutine, so the schedule and every count repeat.
type annotateBurst struct {
	fx   *fixture
	eng  *soxq.Engine
	doc  string
	prep *soxq.Prepared
}

func startAnnotate(fx *fixture, e *env, seed uint64) (instance, error) {
	w := &annotateBurst{fx: fx, eng: soxq.New(), doc: fx.docs[0].name}
	if err := w.eng.LoadXML(w.doc, fx.docs[0].xml); err != nil {
		return nil, err
	}
	if err := w.eng.BuildIndex(w.doc); err != nil {
		return nil, err
	}
	var err error
	if w.prep, err = w.eng.Prepare(sceneQuery(w.doc, "mark")); err != nil {
		return nil, err
	}
	// Warm-up: each distinct operation once, leaving no mark behind. The
	// mark sits where no mark of the run will (length 1).
	if err := w.eng.InsertAnnotation(w.doc, "mark", soxq.Region{Start: 1, End: 2}); err != nil {
		return nil, err
	}
	if n, _, err := w.drain(nil, -1, -1); err != nil || n != 1 {
		return nil, fmt.Errorf("warm-up read: %d rows (want 1), err %v", n, err)
	}
	if n, err := w.eng.DeleteAnnotation(w.doc, "mark", 1, 2); err != nil || n != 1 {
		return nil, fmt.Errorf("warm-up delete removed %d (want 1), err %v", n, err)
	}
	return w, nil
}

// drain streams the mark query to its end, returning the row count and the
// time to the first row.
func (w *annotateBurst) drain(tr *tracer, parent, op int) (rows int, first time.Duration, err error) {
	t0 := time.Now()
	id := tr.begin("soxq.Stream.first_row", parent, op)
	cur, err := w.prep.Stream(soxq.Config{})
	if err != nil {
		return 0, 0, err
	}
	defer cur.Close()
	more := cur.Next()
	first = time.Since(t0)
	tr.end(id)
	id = tr.begin("soxq.Cursor.drain", parent, op)
	for ; more; more = cur.Next() {
		rows++
	}
	tr.end(id)
	return rows, first, cur.Err()
}

// verify: the generator's own count of live contained marks is the oracle,
// checked on every read of the op loop; here, that the base document holds
// what the generator says it wrote.
func (w *annotateBurst) verify() error {
	res, err := w.eng.Query(sceneQuery(w.doc, "hit"))
	if err != nil {
		return err
	}
	if want := int(w.fx.span/w.fx.sceneWidth) * annotateHits; res.Len() != want {
		return fmt.Errorf("annotate-burst: %d hits contained in scenes, generator wrote %d", res.Len(), want)
	}
	return nil
}

func (w *annotateBurst) run(n int, traced bool, deadline time.Time) (*samples, error) {
	s := &samples{}
	tr := tracerIf(traced)
	span, width := w.fx.span, w.fx.sceneWidth
	live := 0 // marks alive and inside one scene: what every read must return
	check := func(what string, rows, want int, err error) {
		s.attempted++
		if err != nil {
			s.fail(fmt.Errorf("%s: %w", what, err))
		} else if rows != want {
			s.fail(fmt.Errorf("%s: %d rows, generator counts %d live contained marks", what, rows, want))
		}
	}
	start := time.Now()
	for op := 0; op < n && !time.Now().After(deadline); op++ {
		tr.setOn(op/traceBlock%2 == 1)
		root := tr.begin("op.cycle", -1, op)

		// Every pinEvery-th cycle a reader is already on the old snapshot
		// when the burst lands, and must still see exactly that snapshot.
		var pinned *soxq.Cursor
		pinnedWant := live
		if op%pinEvery == pinEvery-1 && live > 0 {
			cur, err := w.prep.Stream(soxq.Config{})
			if err == nil && !cur.Next() {
				err = fmt.Errorf("pinned read: no first row (err %v)", cur.Err())
			}
			if err != nil {
				check("pinned read", 0, 0, err)
			} else {
				pinned = cur
			}
		}

		burst := tr.begin("op.burst", root, op)
		t0 := time.Now()
		for i := 0; i < burstInserts; i++ {
			st, en := markAt(op*burstInserts+i, span)
			id := tr.begin("soxq.InsertAnnotation", burst, op)
			err := w.eng.InsertAnnotation(w.doc, "mark", soxq.Region{Start: st, End: en})
			tr.end(id)
			check("insert", 0, 0, err)
			if err == nil && contained(st, en, width) {
				live++
			}
		}
		if op >= deleteLag {
			for i := 0; i < burstDeletes; i++ {
				st, en := markAt((op-deleteLag)*burstInserts+i, span)
				id := tr.begin("soxq.DeleteAnnotation", burst, op)
				removed, err := w.eng.DeleteAnnotation(w.doc, "mark", st, en)
				tr.end(id)
				check("delete", removed, 1, err)
				if err == nil && removed == 1 && contained(st, en, width) {
					live--
				}
			}
		}
		s.add("write_burst", time.Since(t0))
		tr.end(burst)

		if pinned != nil {
			rows := 1
			for pinned.Next() {
				rows++
			}
			check("pinned read", rows, pinnedWant, pinned.Close())
		}

		read := tr.begin("op.read", root, op)
		t0 = time.Now()
		rows, first, err := w.drain(tr, read, op)
		s.query = append(s.query, time.Since(t0))
		s.ttfr = append(s.ttfr, first)
		tr.end(read)
		check("read after write", rows, live, err)

		tr.end(root)
		s.traced = append(s.traced, tr.recording())
	}
	s.wall = time.Since(start)
	s.skipped = n - len(s.query)
	s.spans = tr.recorded()
	return s, nil
}

func (w *annotateBurst) pid() int     { return os.Getpid() }
func (w *annotateBurst) close() error { return nil }
