package xqexec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"soxq/internal/xqeval"
)

// fakeShard is a ShardSource-backed cursor over a fixed item sequence,
// handed out in batches of at most fakeBatch items that alias the sequence,
// with an optional error injected after the items and close tracking for the
// teardown assertions.
type fakeShard struct {
	items  []xqeval.Item
	err    error
	i      int
	closed atomic.Bool
}

// fakeBatch is smaller than most shards, so a shard spans several batches
// and the Reader test reads across batch boundaries.
const fakeBatch = 2

func (f *fakeShard) NextBatch() Batch {
	n := min(fakeBatch, len(f.items)-f.i)
	f.i += n
	return Batch{Items: f.items[f.i-n : f.i]}
}

func (f *fakeShard) Err() error {
	if f.i >= len(f.items) {
		return f.err
	}
	return nil
}
func (f *fakeShard) Close() { f.closed.Store(true) }

// intShard builds n items tagged with the shard id so merge order is
// checkable: shard s yields s*1000, s*1000+1, ...
func intShard(s, n int) *fakeShard {
	f := &fakeShard{}
	for i := 0; i < n; i++ {
		f.items = append(f.items, xqeval.Int(int64(s*1000+i)))
	}
	return f
}

func sourcesFor(shards []*fakeShard) []ShardSource {
	out := make([]ShardSource, len(shards))
	for i, f := range shards {
		out[i] = func() (Cursor, error) { return f, nil }
	}
	return out
}

// drainInts drains c batch by batch, reading each batch before the next call.
func drainInts(t *testing.T, c Cursor) ([]int64, error) {
	t.Helper()
	var got []int64
	for b := c.NextBatch(); b.Len() > 0; b = c.NextBatch() {
		for i := range b.Len() {
			it := b.Item(i)
			if it.Kind != xqeval.KInt {
				t.Fatalf("non-int item: %v", it)
			}
			got = append(got, it.I)
		}
	}
	err := c.Err()
	c.Close()
	return got, err
}

// TestReaderAcrossBatches pins the Reader over a cursor whose batches do not
// line up with what is asked: Fill and Next interleave across batch
// boundaries without losing or repeating a row, Fill stops short of its
// limit only at the end, and the error surfaces after the last row.
func TestReaderAcrossBatches(t *testing.T) {
	boom := errors.New("boom")
	f := intShard(0, 7)
	f.err = boom
	rows := NewReader(f)
	var got []int64
	collect := func(items []xqeval.Item) {
		for _, it := range items {
			got = append(got, it.I)
		}
	}
	if !rows.Next() {
		t.Fatal("empty stream")
	}
	collect([]xqeval.Item{rows.Item()})
	chunk := rows.Fill(nil, 3)
	if len(chunk) != 3 {
		t.Fatalf("Fill(3) mid-stream returned %d rows", len(chunk))
	}
	collect(chunk)
	if !rows.Next() {
		t.Fatal("stream ended early")
	}
	collect([]xqeval.Item{rows.Item()})
	chunk = rows.Fill(chunk[:0], 5)
	collect(chunk)
	if rows.Next() || rows.Fill(nil, 1) != nil {
		t.Fatal("rows after the end of the stream")
	}
	if want := []int64{0, 1, 2, 3, 4, 5, 6}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	if err := rows.Err(); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	rows.Close()
	if !f.closed.Load() {
		t.Fatal("Reader.Close did not close the cursor")
	}
}

// TestReaderPeekSkip: Peek hands out at most n rows after the current one,
// never past the end of a batch, and passes none of them, so peeking twice
// sees the same rows; Skip passes some of them and makes the last passed the
// current row; Next carries on after it. Nothing is lost or repeated, and an
// empty batch ends the stream.
func TestReaderPeekSkip(t *testing.T) {
	rows := NewReader(intShard(0, 9)) // batches 0 1 | 2 3 | 4 5 | 6 7 | 8
	defer rows.Close()
	var got []int64
	for step := 0; ; step++ {
		if step%3 == 2 {
			if !rows.Next() {
				break
			}
			got = append(got, rows.Item().I)
			continue
		}
		n := 1 + step%2*100 // 1, or more than a batch holds
		b := rows.Peek(n)
		if again := rows.Peek(n); fmt.Sprint(again.Items) != fmt.Sprint(b.Items) {
			t.Fatalf("step %d: Peek passed rows: %v then %v", step, b.Items, again.Items)
		}
		if b.Len() == 0 {
			break
		}
		if b.Len() > min(n, fakeBatch) {
			t.Fatalf("step %d: Peek(%d) returned %d rows", step, n, b.Len())
		}
		k := max(1, b.Len()-1)
		for _, it := range b.Items[:k] {
			got = append(got, it.I)
		}
		rows.Skip(k)
		if rows.Item().I != b.Items[k-1].I {
			t.Fatalf("step %d: current row %d after Skip(%d), want %d", step, rows.Item().I, k, b.Items[k-1].I)
		}
	}
	if want := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
}

// fillInts drains c through a Reader, chunk rows per Fill, as a consumer
// with a fixed read size does.
func fillInts(c Cursor, chunk int) ([]int64, error) {
	rows := NewReader(c)
	defer rows.Close()
	var got []int64
	var buf []xqeval.Item
	for buf = rows.Fill(buf[:0], chunk); len(buf) > 0; buf = rows.Fill(buf[:0], chunk) {
		for _, it := range buf {
			got = append(got, it.I)
		}
	}
	return got, rows.Err()
}

// onWorkers runs f once on the calling goroutine when workers is 0, else once
// on each of workers goroutines at a time, and joins their errors.
func onWorkers(workers int, f func() error) error {
	if workers == 0 {
		return f()
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = f()
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestMergeShardsOrder pins the document-order merge: the merged stream is
// the in-order concatenation of the shard streams, including empty shards,
// and every shard cursor the merge built is closed once drained. It holds
// whatever rows the consumer reads at a time (chunk) and with several
// merges, each over its own shards, draining at once (workers) — as when
// several corpus queries run concurrently.
func TestMergeShardsOrder(t *testing.T) {
	sizes := []int{3, 0, 7, 1, 0, 5, 2}
	var want []int64
	for s, n := range sizes {
		for i := 0; i < n; i++ {
			want = append(want, int64(s*1000+i))
		}
	}
	for _, workers := range []int{0, 1, 2, 3, 16} {
		for _, chunk := range []int{1, 2, 1024} {
			t.Run(fmt.Sprintf("workers=%d/chunk=%d", workers, chunk), func(t *testing.T) {
				err := onWorkers(workers, func() error {
					shards := make([]*fakeShard, len(sizes))
					for s, n := range sizes {
						shards[s] = intShard(s, n)
					}
					got, err := fillInts(MergeShards(sourcesFor(shards)), chunk)
					if err != nil {
						return err
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						return fmt.Errorf("got %v, want %v", got, want)
					}
					for s, f := range shards {
						if !f.closed.Load() {
							return fmt.Errorf("shard %d cursor not closed", s)
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMergeShardsErrorPosition pins the error contract: a failing shard
// surfaces its error after every item of the shards before it and after its
// own pre-error items, and the shards after it are never built — for one
// merge and for several draining at once.
func TestMergeShardsErrorPosition(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			err := onWorkers(workers, func() error {
				shards := []*fakeShard{intShard(0, 2), intShard(1, 2), intShard(2, 3)}
				shards[1].err = boom
				got, err := fillInts(MergeShards(sourcesFor(shards)), 1)
				if !errors.Is(err, boom) {
					return fmt.Errorf("err = %v, want boom", err)
				}
				if want := []int64{0, 1, 1000, 1001}; fmt.Sprint(got) != fmt.Sprint(want) {
					return fmt.Errorf("got %v, want %v", got, want)
				}
				if shards[2].i > 0 {
					return errors.New("shard after the failing one was drained")
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMergeShardsSourceError pins a failing source (the shard pipeline could
// not even be built): its error takes the shard's position in the stream.
func TestMergeShardsSourceError(t *testing.T) {
	boom := errors.New("no such document")
	srcs := []ShardSource{
		func() (Cursor, error) { return intShard(0, 2), nil },
		func() (Cursor, error) { return nil, boom },
		func() (Cursor, error) { return intShard(2, 2), nil },
	}
	got, err := drainInts(t, MergeShards(srcs))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want source error", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v, want shard 0 only", got)
	}
}

// TestMergeShardsLazySequential pins that the merge builds shard sources
// lazily: closing after the first shard's batches must not have
// invoked the later sources at all.
func TestMergeShardsLazySequential(t *testing.T) {
	var built [3]atomic.Bool
	shards := []*fakeShard{intShard(0, 4), intShard(1, 4), intShard(2, 4)}
	srcs := make([]ShardSource, 3)
	for i := range srcs {
		srcs[i] = func() (Cursor, error) { built[i].Store(true); return shards[i], nil }
	}
	c := MergeShards(srcs)
	for i := 0; i < 4/fakeBatch; i++ {
		if c.NextBatch().Len() == 0 {
			t.Fatal("stream ended early")
		}
	}
	c.Close()
	if !built[0].Load() || built[1].Load() || built[2].Load() {
		t.Fatalf("sources built = %v %v %v, want only the first",
			built[0].Load(), built[1].Load(), built[2].Load())
	}
}
