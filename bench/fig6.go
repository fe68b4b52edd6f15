package main

import (
	"fmt"
	"os"
	"time"

	"soxq"
	"soxq/internal/xmark"
)

// fig6 is the paper's experiment as a user runs it: the four stand-off XMark
// queries, prepared once, executed in auto mode over one loaded document.
type fig6 struct {
	eng   *soxq.Engine
	preps []*soxq.Prepared
	want  []int // result length per query, from the warm-up
}

func startFig6(fx *fixture, e *env, seed uint64) (instance, error) {
	w := &fig6{eng: soxq.New()}
	d := fx.docs[0]
	if err := w.eng.LoadXML(d.name, d.xml); err != nil {
		return nil, err
	}
	if err := w.eng.BuildIndex(d.name); err != nil {
		return nil, err
	}
	for _, q := range fx.texts {
		p, err := w.eng.Prepare(q)
		if err != nil {
			return nil, err
		}
		res, err := p.Exec(soxq.Config{}) // warm-up
		if err != nil {
			return nil, err
		}
		w.preps = append(w.preps, p)
		w.want = append(w.want, res.Len())
	}
	return w, nil
}

// resultSum is FNV-1a over the serialised result.
func resultSum(r *soxq.Result) uint64 {
	h := fnvOffset
	for i := 0; i < r.Len(); i++ {
		h = fnvAddString(h, r.Value(i).XML())
		h = fnvAddString(h, "\n")
	}
	return h
}

// verify asserts auto = loop-lifted = basic on every query, by checksum.
// Basic is quadratic on Q2, so this runs once, outside set-up and timing.
func (w *fig6) verify() error {
	for i, p := range w.preps {
		var sums [3]uint64
		for j, m := range []soxq.Mode{soxq.ModeAuto, soxq.ModeLoopLifted, soxq.ModeBasic} {
			res, err := p.Exec(soxq.Config{Mode: m})
			if err != nil {
				return fmt.Errorf("Q%d %v: %w", xmark.QueryNumbers[i], m, err)
			}
			if res.Len() != w.want[i] || res.Len() == 0 {
				return fmt.Errorf("Q%d %v: %d items, want %d (non-empty)", xmark.QueryNumbers[i], m, res.Len(), w.want[i])
			}
			sums[j] = resultSum(res)
		}
		if sums[0] != sums[1] || sums[0] != sums[2] {
			return fmt.Errorf("Q%d: auto/looplifted/basic checksums differ: %x %x %x", xmark.QueryNumbers[i], sums[0], sums[1], sums[2])
		}
	}
	return nil
}

func (w *fig6) run(n int, traced bool, deadline time.Time) (*samples, error) {
	s := &samples{}
	tr := tracerIf(traced)
	series := make([]string, len(w.preps))
	spanName := make([]string, len(w.preps))
	for i, q := range xmark.QueryNumbers {
		series[i] = fmt.Sprintf("fig6_q%d", q)
		spanName[i] = fmt.Sprintf("soxq.Exec.q%d", q)
	}
	start := time.Now()
	for op := 0; op < n && !time.Now().After(deadline); op++ {
		tr.setOn(op/traceBlock%2 == 1)
		root := tr.begin("op.sweep", -1, op)
		t0 := time.Now()
		for i, p := range w.preps {
			id := tr.begin(spanName[i], root, op)
			tq := time.Now()
			res, err := p.Exec(soxq.Config{})
			dq := time.Since(tq)
			tr.end(id)
			s.attempted++
			if err != nil {
				s.fail(err)
			} else if res.Len() != w.want[i] {
				s.fail(fmt.Errorf("%s: %d items, want %d", series[i], res.Len(), w.want[i]))
			}
			s.add(series[i], dq)
			if i == 0 {
				s.ttfr = append(s.ttfr, dq)
			}
		}
		s.query = append(s.query, time.Since(t0))
		tr.end(root)
		s.traced = append(s.traced, tr.recording())
	}
	s.wall = time.Since(start)
	s.skipped = n - len(s.query)
	s.spans = tr.recorded()
	return s, nil
}

func (w *fig6) pid() int     { return os.Getpid() }
func (w *fig6) close() error { return nil }
