package soxq

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

const concurrentDoc = `<doc>
  <scene id="s1" start="0" end="99"/>
  <scene id="s2" start="100" end="199"/>
  <hit id="h1" start="10" end="20"/>
  <hit id="h2" start="110" end="120"/>
  <hit id="h3" start="500" end="600"/>
</doc>`

const churnDoc = `<doc><x start="0" end="5"/></doc>`

// TestConcurrentPreparedAndCachedQuery runs one shared Prepared plan and the
// cached Engine.Query path from many goroutines while another goroutine
// churns engine state (Declare, Unload + reload). It pins the tentpole's
// concurrency contract — an immutable plan plus per-run evaluator state —
// and must stay clean under `go test -race`.
func TestConcurrentPreparedAndCachedQuery(t *testing.T) {
	eng := New()
	if err := eng.LoadXML("stable.xml", []byte(concurrentDoc)); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadXML("churn.xml", []byte(churnDoc)); err != nil {
		t.Fatal(err)
	}

	const query = `for $s in doc("stable.xml")//scene return string($s/select-narrow::hit/@id)`
	prep, err := eng.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.String()
	if want != "h1 h2" {
		t.Fatalf("reference result = %q, want %q", want, "h1 h2")
	}

	const (
		goroutines = 8
		iterations = 300
	)
	var workers, churner sync.WaitGroup
	stop := make(chan struct{})

	// Churn goroutine: redeclares an (unchanged) engine default — which
	// takes the write lock and purges the plan cache — and unloads/reloads
	// a second document.
	churner.Add(1)
	go func() {
		defer churner.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := eng.Declare("standoff-type", "xs:integer"); err != nil {
				t.Errorf("Declare: %v", err)
				return
			}
			eng.Unload("churn.xml")
			if err := eng.LoadXML("churn.xml", []byte(churnDoc)); err != nil {
				t.Errorf("reload: %v", err)
				return
			}
		}
	}()

	var execs, cacheQueries atomic.Int64
	for g := 0; g < goroutines; g++ {
		workers.Add(1)
		go func(g int) {
			defer workers.Done()
			modes := []Mode{ModeLoopLifted, ModeBasic, ModeUDF}
			for i := 0; i < iterations; i++ {
				// Shared Prepared plan, rotating execution modes.
				res, err := prep.Exec(Config{Mode: modes[i%len(modes)]})
				if err != nil {
					t.Errorf("Exec: %v", err)
					return
				}
				if got := res.String(); got != want {
					t.Errorf("Exec = %q, want %q", got, want)
					return
				}
				execs.Add(1)
				// Cached Query path on the same text.
				res, err = eng.Query(query)
				if err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				if got := res.String(); got != want {
					t.Errorf("Query = %q, want %q", got, want)
					return
				}
				cacheQueries.Add(1)
				// The churned document may be mid-unload; both outcomes are
				// legal, racing on it must not corrupt anything.
				if res, err := eng.Query(`count(doc("churn.xml")//x)`); err != nil {
					if !strings.Contains(err.Error(), "not loaded") {
						t.Errorf("churn query: %v", err)
						return
					}
				} else if got := res.String(); got != "1" {
					t.Errorf("churn query = %q", got)
					return
				}
			}
		}(g)
	}

	workers.Wait()
	close(stop)
	churner.Wait()

	if t.Failed() {
		return
	}
	if execs.Load() != goroutines*iterations || cacheQueries.Load() != goroutines*iterations {
		t.Fatalf("executed %d prepared runs and %d cached queries, want %d each",
			execs.Load(), cacheQueries.Load(), goroutines*iterations)
	}
}

// TestConcurrentStreamDrains drains one shared Prepared plan through two (and
// more) concurrent streaming cursors. Each drain borrows join buffers from the
// plan's shared arena pool and recycles its own chunk/seed/pre buffers, so
// this pins — under `go test -race` — that pooled buffers are never visible to
// two cursors at once and that per-cursor recycled state really is per-cursor.
func TestConcurrentStreamDrains(t *testing.T) {
	eng := New()
	if err := eng.LoadXML("stable.xml", []byte(concurrentDoc)); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		// Join-only path: the pipelined standoffCursor over arena-recycled
		// candidate buffers.
		`doc("stable.xml")//scene/select-narrow::hit/@id`,
		// Chunked FLWOR path: recycled chunk and seed buffers driving child
		// cursors, plus a stand-off join inside the loop body.
		`for $s in doc("stable.xml")//scene
		 for $i in 1 to 4
		 return string($s/select-narrow::hit/@id)`,
	}
	for _, query := range queries {
		prep, err := eng.Prepare(query)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", query, err)
		}
		ref, err := prep.Exec(Config{})
		if err != nil {
			t.Fatal(err)
		}
		want := ref.String()

		const (
			goroutines = 4
			drains     = 50
		)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Different chunk sizes per goroutine so the concurrent
				// cursors refill on different schedules and return buffers
				// to the shared pool at different times.
				cfg := Config{StreamChunk: g + 1}
				for i := 0; i < drains; i++ {
					cur, err := prep.Stream(cfg)
					if err != nil {
						t.Errorf("Stream: %v", err)
						return
					}
					var sb strings.Builder
					for cur.Next() {
						if sb.Len() > 0 {
							sb.WriteByte(' ')
						}
						sb.WriteString(cur.Value().XML())
					}
					if err := cur.Close(); err != nil {
						t.Errorf("drain: %v", err)
						return
					}
					if got := sb.String(); got != want {
						t.Errorf("concurrent drain = %q, want %q", got, want)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestPlanCacheHitAndInvalidation pins the Query plan-cache contract:
// repeated text hits, Declare and Unload invalidate.
func TestPlanCacheHitAndInvalidation(t *testing.T) {
	eng := New()
	if err := eng.LoadXML("d.xml", []byte(concurrentDoc)); err != nil {
		t.Fatal(err)
	}
	q := `doc("d.xml")//scene/select-narrow::hit`
	for i := 0; i < 5; i++ {
		if _, err := eng.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, size := eng.PlanCacheStats()
	if hits != 4 || misses != 1 || size != 1 {
		t.Fatalf("stats after 5 runs = hits %d misses %d size %d, want 4/1/1", hits, misses, size)
	}

	// Prepare shares the same cache regardless of Config: the plan is
	// config-independent, only execution differs.
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Exec(Config{Mode: ModeBasic, NoPushdown: true}); err != nil {
		t.Fatal(err)
	}
	if h, _, _ := eng.PlanCacheStats(); h != 5 {
		t.Fatalf("Prepare missed the cache: hits = %d", h)
	}

	// Declare invalidates.
	if err := eng.Declare("standoff-start", "start"); err != nil {
		t.Fatal(err)
	}
	if _, _, size := eng.PlanCacheStats(); size != 0 {
		t.Fatalf("cache size after Declare = %d, want 0", size)
	}

	// Unload invalidates too.
	if _, err := eng.Query(q); err != nil {
		t.Fatal(err)
	}
	eng.Unload("d.xml")
	if _, _, size := eng.PlanCacheStats(); size != 0 {
		t.Fatalf("cache size after Unload = %d, want 0", size)
	}
}

// TestPreparedSnapshotsOptions pins that a Prepared statement keeps the
// options it was compiled under, while fresh Query compilations see new
// engine defaults.
func TestPreparedSnapshotsOptions(t *testing.T) {
	eng := New()
	timecoded := `<sample>
	  <shot id="a" start="0:00" end="0:10"/>
	  <hit id="b" start="0:02" end="0:04"/>
	</sample>`
	if err := eng.Declare("standoff-type", "so:timecode"); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadXML("t.xml", []byte(timecoded)); err != nil {
		t.Fatal(err)
	}
	q := `doc("t.xml")//shot/select-narrow::hit/@id`
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != `id="b"` {
		t.Fatalf("timecode exec = %q", res.String())
	}
	// Flip the engine default: the prepared plan still parses timecodes,
	// a fresh Query does not (and errors on "0:00").
	if err := eng.Declare("standoff-type", "xs:integer"); err != nil {
		t.Fatal(err)
	}
	res, err = prep.Exec(Config{})
	if err != nil || res.String() != `id="b"` {
		t.Fatalf("prepared plan lost its options: %q %v", res.String(), err)
	}
	if _, err := eng.Query(q); err == nil {
		t.Fatal("integer-typed query over timecode positions should fail")
	}
}

// TestPreparedMatchesQueryAcrossModes runs a corpus of queries through both
// the prepared and the one-shot paths in every execution mode and demands
// identical serialisations.
func TestPreparedMatchesQueryAcrossModes(t *testing.T) {
	eng := New()
	if err := eng.LoadXML("d.xml", []byte(concurrentDoc)); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`doc("d.xml")//scene/select-narrow::hit`,
		`doc("d.xml")//scene/select-wide::hit`,
		`doc("d.xml")//scene/reject-narrow::hit`,
		`for $s in doc("d.xml")//scene order by string($s/@id) descending return string($s/@id)`,
		`declare function local:f($x, $y) { $x + $y }; local:f(2, local:f(1, 1 + 1))`,
	}
	for _, q := range queries {
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("Prepare(%s): %v", q, err)
		}
		for _, mode := range []Mode{ModeLoopLifted, ModeBasic, ModeUDF} {
			cfg := Config{Mode: mode}
			a, err := prep.Exec(cfg)
			if err != nil {
				t.Fatalf("Exec(%s, %v): %v", q, mode, err)
			}
			b, err := queryWith(eng, q, cfg)
			if err != nil {
				t.Fatalf("queryWith(%s, %v): %v", q, mode, err)
			}
			if a.String() != b.String() {
				t.Fatalf("%s under %v: prepared %q != query %q", q, mode, a.String(), b.String())
			}
		}
	}
}

// TestFuncKeyArityBeyondNine regression-tests the old rune-encoded function
// key ('0'+arity), which collided into punctuation for arity > 9.
func TestFuncKeyArityBeyondNine(t *testing.T) {
	eng := New()
	params := make([]string, 12)
	args := make([]string, 12)
	for i := range params {
		params[i] = fmt.Sprintf("$p%d", i)
		args[i] = "1"
	}
	q := fmt.Sprintf(
		`declare function local:wide(%s) { $p11 }; local:wide(%s)`,
		strings.Join(params, ", "), strings.Join(args, ", "))
	res, err := eng.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.String() != "1" {
		t.Fatalf("wide call = %q", res.String())
	}
}

// TestAttrOrderConcurrentFirstUse: goroutines that run the same pushed
// predicate on a fresh index race to build its value ordering; the one
// published ordering serves them all, and every run returns the same answer.
// Must stay clean under `go test -race`.
func TestAttrOrderConcurrentFirstUse(t *testing.T) {
	var doc strings.Builder
	doc.WriteString(`<doc><scene id="s" start="0" end="100000"/>`)
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&doc, `<hit id="h%d" start="%d" end="%d"/>`, i, i*37%99000, i*37%99000+50)
	}
	doc.WriteString(`</doc>`)
	eng := New()
	if err := eng.LoadXML("d.xml", []byte(doc.String())); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex("d.xml"); err != nil {
		t.Fatal(err)
	}
	prep, err := eng.Prepare(`doc("d.xml")//scene/select-narrow::hit[@start < 50000][@id >= "h1"]/@id`)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	got := make([]string, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			res, err := prep.Exec(Config{})
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = res.String()
		}()
	}
	start.Done()
	done.Wait()
	ref, err := prep.Exec(Config{NoPushdown: true})
	if err != nil {
		t.Fatal(err)
	}
	for g, s := range got {
		if s != ref.String() || s == "" {
			t.Fatalf("goroutine %d: %.80q, post-filtered %.80q", g, s, ref.String())
		}
	}
}
