package soxq

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"soxq/internal/spawncheck"
	"soxq/internal/xmark"
)

// streamCorpus is the public-API query corpus for the Stream/Exec
// equivalence property. It reuses the stand-off sample documents and covers
// the pipelined operator forms plus the materialising fallbacks.
var streamCorpus = []string{
	`doc("stable.xml")//scene`,
	`doc("stable.xml")//scene/@id`,
	`doc("stable.xml")//scene/select-narrow::hit`,
	`for $s in doc("stable.xml")//scene return $s/select-narrow::hit/@id`,
	`for $s in doc("stable.xml")//scene where $s/@start > 50 return string($s/@id)`,
	`for $s at $p in doc("stable.xml")//scene return $p`,
	`for $s in doc("stable.xml")//scene for $h in $s/select-wide::hit return <m s="{$s/@id}">{$h/@id}</m>`,
	`for $s in doc("stable.xml")//scene order by $s/@id descending return $s/@id`,
	`for $i in 1 to 500 return $i * 3`,
	`(doc("stable.xml")//scene, doc("stable.xml")//hit, 1 to 5)`,
	`count(doc("stable.xml")//hit)`,
	`sum(for $i in 1 to 100 return $i)`,
	`let $scenes := doc("stable.xml")//scene return count($scenes)`,
	`some $h in doc("stable.xml")//hit satisfies $h/@start > 400`,
	`for $h in doc("stable.xml")//hit return $h/reject-narrow::scene`,
	// Chunked StandOff final steps and nested cursor-valued loops.
	`doc("stable.xml")//scene/select-wide::hit`,
	`doc("stable.xml")//hit/select-wide::scene/@id`,
	`for $s in doc("stable.xml")//scene for $h in doc("stable.xml")//hit
	 where $h/@start >= $s/@start return ($s/@id, $h/@id)`,
	`for $i in 1 to 40 for $j in 1 to $i return $j * $i`,
	`doc("missing.xml")//x`,
}

// streamMatrix is the public equivalence grid: StreamChunk from degenerate
// (1) through the default (0) to one chunk that holds everything (1 << 20)
// — the same cells as the internal pipeline matrix.
func streamMatrix() []Config {
	var cfgs []Config
	for _, chunk := range []int{1, 2, 7, 64, 0, 1 << 20} {
		cfgs = append(cfgs, Config{StreamChunk: chunk})
	}
	return cfgs
}

func streamEngine(t testing.TB) *Engine {
	t.Helper()
	eng := New()
	if err := eng.LoadXML("stable.xml", []byte(concurrentDoc)); err != nil {
		t.Fatal(err)
	}
	return eng
}

// drainStream collects a cursor's items as Result.String would render them,
// or the error.
func drainStream(cur *Cursor) (string, error) {
	var sb strings.Builder
	first := true
	for cur.Next() {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		sb.WriteString(cur.Value().XML())
	}
	if err := cur.Err(); err != nil {
		return "", err
	}
	return sb.String(), cur.Close()
}

// TestStreamExecEquivalence is the public equivalence property: for every
// corpus query and every chunk size of the matrix — plus the
// forced-mode and no-pushdown rows — Stream drains to byte-identical output
// as Exec's materialised Result (or fails with the identical error).
func TestStreamExecEquivalence(t *testing.T) {
	eng := streamEngine(t)
	cfgs := append(streamMatrix(),
		Config{Mode: ModeBasic},
		Config{Mode: ModeLoopLifted},
		Config{NoPushdown: true},
	)
	for _, q := range streamCorpus {
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatalf("prepare %q: %v", q, err)
		}
		for _, cfg := range cfgs {
			var want, got string
			res, execErr := prep.Exec(cfg)
			if execErr == nil {
				want = res.String()
			}
			cur, streamErr := prep.Stream(cfg)
			if streamErr == nil {
				got, streamErr = drainStream(cur)
			}
			switch {
			case execErr != nil || streamErr != nil:
				if fmt.Sprint(execErr) != fmt.Sprint(streamErr) {
					t.Errorf("%q cfg %+v: exec err %v, stream err %v", q, cfg, execErr, streamErr)
				}
			case got != want:
				t.Errorf("%q cfg %+v:\nstream %q\nexec   %q", q, cfg, got, want)
			}
		}
	}
}

// TestRangeTooLarge pins the range-size limit at the edges of the integer
// range, where hi-lo overflows an int64: Exec and Stream both reject each
// range as too large, as a bare range, under count and bound by a for.
func TestRangeTooLarge(t *testing.T) {
	eng := streamEngine(t)
	for _, r := range []string{`-1 to 9223372036854775807`, `-9223372036854775807 to 9223372036854775807`} {
		for _, q := range []string{r, `count(` + r + `)`, `for $i in ` + r + ` return $i`} {
			prep, err := eng.Prepare(q)
			if err != nil {
				t.Fatalf("prepare %q: %v", q, err)
			}
			_, execErr := prep.Exec(Config{})
			cur, streamErr := prep.Stream(Config{})
			if streamErr == nil {
				_, streamErr = drainStream(cur)
			}
			for _, err := range []error{execErr, streamErr} {
				if err == nil || !strings.Contains(err.Error(), "XPTY0004") || !strings.Contains(err.Error(), "too large") {
					t.Errorf("%q: err %v, want XPTY0004 too large", q, err)
				}
			}
		}
	}
}

// TestStreamLargeLoopConcurrent pins the equivalence on a loop of many
// chunks, streaming and draining from several goroutines at once over one
// shared Prepared — the -race test of the concurrency contract.
func TestStreamLargeLoopConcurrent(t *testing.T) {
	eng := streamEngine(t)
	const q = `for $i in 1 to 2000 return $i * ($i mod 7)`
	prep, err := eng.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.String()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		cfg := Config{StreamChunk: 8 << (g % 4)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := prep.Stream(cfg)
			if err != nil {
				errs <- err
				return
			}
			got, err := drainStream(cur)
			if err != nil {
				errs <- err
				return
			}
			if got != want {
				errs <- fmt.Errorf("cfg %+v diverged", cfg)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStreamNestedConcurrent streams a nested FLWOR (cursor-valued inner
// binding) from several goroutines over one shared Prepared — the -race
// guard for the nested-cursor decision path, which inspects the shared
// immutable plan at execution time (a write anywhere in that inspection is
// a race exactly here).
func TestStreamNestedConcurrent(t *testing.T) {
	eng := streamEngine(t)
	prep, err := eng.Prepare(
		`for $s in doc("stable.xml")//scene for $i in 1 to 50 return ($s/@id, $i)`)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.String()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		cfg := Config{StreamChunk: 1 + g*3}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur, err := prep.Stream(cfg)
			if err != nil {
				errs <- err
				return
			}
			got, err := drainStream(cur)
			if err != nil {
				errs <- err
				return
			}
			if got != want {
				errs <- fmt.Errorf("cfg %+v diverged", cfg)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestStreamEarlyClose: abandoning a stream after a few items — including a
// nested-loop one — must release the pipeline, leave no goroutine behind, and
// keep Err nil.
func TestStreamEarlyClose(t *testing.T) {
	eng := streamEngine(t)
	for _, q := range []string{
		`for $i in 1 to 100000 return $i`,
		`for $i in 1 to 100000 for $j in 1 to 50 return $j`,
	} {
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		spawncheck.Run(func(started func() int) {
			cur, err := prep.Stream(Config{StreamChunk: 16})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10 && cur.Next(); i++ {
			}
			if err := cur.Close(); err != nil {
				t.Fatalf("%q: Close = %v", q, err)
			}
			if cur.Next() {
				t.Fatalf("%q: Next after Close", q)
			}
			if n := started(); n != 0 {
				t.Fatalf("%q: %d goroutines started by the run alive after Close", q, n)
			}
		})
	}
}

// TestRunStartsNoGoroutine pins that a query runs on its caller's goroutine:
// every execution API, at every chunk size and with the ignored Parallelism
// set, has started no goroutine that is alive mid-drain or after Close. The
// count is read once per point, without waiting: there is nothing
// asynchronous to wait for. spawncheck counts only goroutines the run
// started, so goroutines of earlier tests still exiting cannot move it.
func TestRunStartsNoGoroutine(t *testing.T) {
	const loop = `for $i in 1 to 2000 return $i * 2`
	for _, chunk := range []int{1, 7, 0} {
		for _, par := range []int{0, 4} {
			cfg := Config{StreamChunk: chunk, Parallelism: par}
			// A fresh engine per config, so QueryCorpus misses its result
			// cache and executes.
			eng, _ := corpusEngine(t, 8)
			prep, err := eng.Prepare(loop)
			if err != nil {
				t.Fatal(err)
			}
			corp, err := eng.Prepare(corpusQuery)
			if err != nil {
				t.Fatal(err)
			}
			spawncheck.Run(func(started func() int) {
				check := func(what string) {
					t.Helper()
					if n := started(); n != 0 {
						t.Fatalf("cfg %+v, %s: %d goroutines started by the run", cfg, what, n)
					}
				}
				check("before the run")
				if _, err := prep.Exec(cfg); err != nil {
					t.Fatal(err)
				}
				check("after Exec")
				if _, err := corp.ExecCorpus("news", cfg); err != nil {
					t.Fatal(err)
				}
				check("after ExecCorpus")
				if _, err := eng.QueryCorpus(corpusQuery, "news", cfg); err != nil {
					t.Fatal(err)
				}
				check("after QueryCorpus")
				for _, s := range []struct {
					api  string
					open func() (*Cursor, error)
					rows int
				}{
					{"Stream", func() (*Cursor, error) { return prep.Stream(cfg) }, 2000},
					{"StreamCorpus", func() (*Cursor, error) { return corp.StreamCorpus("news", cfg) }, 8 * 6},
				} {
					cur, err := s.open()
					if err != nil {
						t.Fatal(err)
					}
					for i := 0; i < s.rows/2; i++ {
						if !cur.Next() {
							t.Fatalf("%s: stream ended after %d rows", s.api, i)
						}
					}
					check(s.api + " half drained")
					if err := cur.Close(); err != nil {
						t.Fatal(err)
					}
					check(s.api + " after Close")
				}
			})
		}
	}
}

// countdownCtx reports context.Canceled from the (n+1)-th call of Err on:
// a run under it is cancelled at exactly its n-th context check.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n == 0 {
		return context.Canceled
	}
	c.n--
	return nil
}

// TestRunCancel cancels the nested-loop and standoff-prefix queries of
// BenchmarkStreamExec, over a small scene corpus at chunk sizes 1 to 3, at
// each of their chunk boundaries in turn. Every cancelled run must end in
// context.Canceled after exactly the rows an uncancelled run delivers first,
// with no goroutine left behind; then a real cancel from another goroutine
// must end a long drain the same way.
func TestRunCancel(t *testing.T) {
	eng := New()
	if err := eng.LoadXML("big.xml", sceneCorpusXML(4)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`for $s in doc("big.xml")//scene for $p in 1 to 60 return $s/@start + $p`,
		`doc("big.xml")//scene/select-wide::scene/select-narrow::hit`,
	} {
		prep, err := eng.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := prep.Exec(Config{})
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, v := range res.Values() {
			want = append(want, v.XML())
		}
		for chunk := 1; chunk <= 3; chunk++ {
			midStream := false
			for n := 0; ; n++ {
				var rows []string
				var runErr error
				spawncheck.Run(func(started func() int) {
					cur, err := prep.Run(&countdownCtx{Context: context.Background(), n: n}, "", Config{StreamChunk: chunk})
					if err != nil {
						t.Fatal(err)
					}
					for cur.Next() {
						rows = append(rows, cur.Value().XML())
					}
					runErr = cur.Close()
					if k := started(); k != 0 {
						t.Fatalf("%s, chunk %d, cancel at check %d: %d goroutines left", q, chunk, n, k)
					}
				})
				if len(rows) > len(want) || !slices.Equal(rows, want[:len(rows)]) {
					t.Fatalf("%s, chunk %d, cancel at check %d: rows %v are not a prefix of %v", q, chunk, n, rows, want)
				}
				if runErr == nil {
					if len(rows) != len(want) {
						t.Fatalf("%s, chunk %d: uncancelled run gave %d rows, want %d", q, chunk, len(rows), len(want))
					}
					break
				}
				if !errors.Is(runErr, context.Canceled) {
					t.Fatalf("%s, chunk %d, cancel at check %d: error %v, want context.Canceled", q, chunk, n, runErr)
				}
				midStream = midStream || len(rows) > 0 && len(rows) < len(want)
			}
			if !midStream {
				t.Fatalf("%s, chunk %d: no cancel landed mid-stream", q, chunk)
			}
		}
	}

	prep, err := eng.Prepare(`for $i in 1 to 16000000 return $i`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := prep.Run(ctx, "", Config{StreamChunk: 1})
	if err != nil {
		t.Fatal(err)
	}
	go cancel()
	n := 0
	for ; cur.Next(); n++ {
		if got := cur.Value().String(); got != strconv.Itoa(n+1) {
			t.Fatalf("row %d = %s", n, got)
		}
	}
	if err := cur.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("after %d rows: error %v, want context.Canceled", n, err)
	}
}

// TestStreamWriteXML: the streaming serialiser matches Result.String.
func TestStreamWriteXML(t *testing.T) {
	eng := streamEngine(t)
	prep, err := eng.Prepare(`for $s in doc("stable.xml")//scene return <s>{$s/@id}</s>`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Exec(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cur, err := prep.Stream(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := cur.WriteXML(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != res.String() {
		t.Fatalf("WriteXML = %q, Result.String = %q", sb.String(), res.String())
	}
}

// TestStreamXMarkEquivalence runs the paper's stand-off XMark queries
// through both execution styles on a generated document — the corpus the
// acceptance criterion names.
func TestStreamXMarkEquivalence(t *testing.T) {
	data, err := xmark.GenerateBytes(xmark.Config{Scale: 0.004, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	eng := New()
	if err := eng.LoadXML("xmark.xml", data); err != nil {
		t.Fatal(err)
	}
	if err := eng.ConvertToStandOff("xmark.xml", "xmark-so.xml", true, 5); err != nil {
		t.Fatal(err)
	}
	for _, qn := range []int{1, 2, 6, 7} {
		prep, err := eng.Prepare(xmark.StandOffQuery(qn, "xmark-so.xml"))
		if err != nil {
			t.Fatalf("Q%d: %v", qn, err)
		}
		res, err := prep.Exec(Config{})
		if err != nil {
			t.Fatalf("Q%d exec: %v", qn, err)
		}
		for _, cfg := range streamMatrix() {
			cur, err := prep.Stream(cfg)
			if err != nil {
				t.Fatalf("Q%d stream: %v", qn, err)
			}
			got, err := drainStream(cur)
			if err != nil {
				t.Fatalf("Q%d drain: %v", qn, err)
			}
			if got != res.String() {
				t.Fatalf("Q%d cfg %+v: stream diverges from exec", qn, cfg)
			}
		}
	}
}
