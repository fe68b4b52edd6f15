package soxq

// Steady-state allocation regression tests: a warm Prepared query drained
// through the streaming pipeline must stay within a fixed allocation budget
// per run. The budgets are deliberately generous — they tolerate a pooled
// join arena being refilled after a GC emptied the pool — but they are far
// below what any per-row or per-chunk allocation regression would produce,
// so a recycled buffer silently turning into a fresh allocation per chunk
// (or per context node) fails here long before it shows up in a benchmark.

import (
	"io"
	"testing"
)

// streamAllocsPerRun measures the average allocations of one warm
// Stream-and-drain of prep under cfg.
func streamAllocsPerRun(t *testing.T, prep *Prepared, cfg Config) float64 {
	t.Helper()
	var failed error
	drain := func() {
		cur, err := prep.Stream(cfg)
		if err != nil {
			failed = err
			return
		}
		for cur.Next() {
		}
		if err := cur.Close(); err != nil {
			failed = err
		}
	}
	// Warm everything once outside the measurement: plan residues, region
	// indexes, the arena pool, the shared ascending-offset table.
	drain()
	if failed != nil {
		t.Fatal(failed)
	}
	n := testing.AllocsPerRun(20, drain)
	if failed != nil {
		t.Fatal(failed)
	}
	return n
}

func allocsEngine(t *testing.T) *Engine {
	t.Helper()
	eng := New()
	if err := eng.Declare("standoff-type", "so:timecode"); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadXML("sample.xml", []byte(figure1Bench)); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex("sample.xml"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestStreamAllocsJoinPath pins the steady-state allocation count of the
// join-only streaming path: a path ending in a StandOff select step, drained
// through the pipelined standoffCursor (per-chunk loop-lifted joins over
// arena-recycled buffers, pres-based emission).
func TestStreamAllocsJoinPath(t *testing.T) {
	eng := allocsEngine(t)
	prep, err := eng.Prepare(`doc("sample.xml")//music/select-narrow::shot`)
	if err != nil {
		t.Fatal(err)
	}
	got := streamAllocsPerRun(t, prep, Config{StreamChunk: 2})
	// Measured ~30 allocs/run warm; the budget leaves room for a full
	// arena-pool refill but is an order of magnitude below a per-chunk
	// allocation regression on this 3-chunk drain.
	const budget = 200
	if got > budget {
		t.Errorf("warm join-path Stream drain allocated %.0f times per run, budget %d", got, budget)
	}
}

// TestWriteXMLAllocsJoinPath: serialising the same join-path drain through
// Cursor.WriteXML stays within the drain's own budget — items append into one
// reused buffer, so serialisation adds the buffer's growth, nothing per item.
func TestWriteXMLAllocsJoinPath(t *testing.T) {
	eng := allocsEngine(t)
	prep, err := eng.Prepare(`doc("sample.xml")//music/select-narrow::shot`)
	if err != nil {
		t.Fatal(err)
	}
	var failed error
	write := func() {
		cur, err := prep.Stream(Config{StreamChunk: 2})
		if err == nil {
			err = cur.WriteXML(io.Discard)
			cur.Close()
		}
		if err != nil {
			failed = err
		}
	}
	write()
	got := testing.AllocsPerRun(20, write)
	if failed != nil {
		t.Fatal(failed)
	}
	const budget = 200 // TestStreamAllocsJoinPath's
	if got > budget {
		t.Errorf("warm join-path WriteXML allocated %.0f times per run, budget %d", got, budget)
	}
}

// execAllocsPerRun measures the average allocations of one warm
// materialising Exec of prep under cfg.
func execAllocsPerRun(t *testing.T, prep *Prepared, cfg Config) float64 {
	t.Helper()
	var failed error
	run := func() {
		if _, err := prep.Exec(cfg); err != nil {
			failed = err
		}
	}
	run()
	if failed != nil {
		t.Fatal(failed)
	}
	n := testing.AllocsPerRun(20, run)
	if failed != nil {
		t.Fatal(failed)
	}
	return n
}

// TestStreamAllocsBelowExec pins the headline property of the recycled
// streaming pipeline on a nested loop: a chunked Stream drain allocates no
// more than the materialising Exec of the same query. Stream trades peak
// memory for per-chunk bookkeeping — if that bookkeeping ever allocates per
// chunk or per tuple, this inversion flips and the test fails.
func TestStreamAllocsBelowExec(t *testing.T) {
	eng := allocsEngine(t)
	prep, err := eng.Prepare(
		`for $m in doc("sample.xml")//music for $i in 1 to 200 return $i mod 7`)
	if err != nil {
		t.Fatal(err)
	}
	stream := streamAllocsPerRun(t, prep, Config{StreamChunk: 16})
	exec := execAllocsPerRun(t, prep, Config{})
	if stream > exec {
		t.Errorf("warm Stream drain allocated %.0f times per run, Exec %.0f — streaming must not out-allocate materialisation", stream, exec)
	}
}

// TestStreamAllocsFLWORPath pins the steady-state allocation count of the
// chunked FLWOR path: a nested loop whose inner binding drives child cursors
// (recycled chunk and seed buffers, broadcast chunk frames, the fast tree
// step and pre-sized builders in the loop body).
func TestStreamAllocsFLWORPath(t *testing.T) {
	eng := allocsEngine(t)
	prep, err := eng.Prepare(
		`for $m in doc("sample.xml")//music for $i in 1 to 8 return $m/@artist`)
	if err != nil {
		t.Fatal(err)
	}
	got := streamAllocsPerRun(t, prep, Config{StreamChunk: 4})
	// Measured ~90 allocs/run warm (2 parent tuples x 8 inner tuples);
	// well below what one allocation per inner tuple would cost.
	const budget = 400
	if got > budget {
		t.Errorf("warm FLWOR Stream drain allocated %.0f times per run, budget %d", got, budget)
	}
}
