// Package spawncheck counts the goroutines a piece of code starts, for tests
// that pin the engine's one-goroutine-per-query model.
//
// runtime.NumGoroutine counts every goroutine in the process, so a
// before/after comparison also sees goroutines of earlier tests that are
// still exiting and the runtime's finalizer goroutine while it runs user
// code. Run instead labels the calling goroutine with a profiler label
// unique to the call; goroutines inherit their creator's labels, so the
// goroutine profile tells exactly which live goroutines f started, directly
// or transitively.
//
// A goroutine profile (Go 1.24) undercounts by one while the runtime's
// finalizer goroutine has been created but has not run yet: the runtime
// sizes the profile without it, records it all the same, and drops the last
// record, which can be one of f's. Run therefore makes sure the finalizer
// goroutine has run before its first profile.
package spawncheck

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const labelKey = "spawncheck"

var (
	runs       atomic.Int64
	finalizers sync.Once
)

// Run calls f on the calling goroutine. Inside f, started reports how many
// goroutines started during this Run are alive: 0 when f has started none
// or every one it started has exited. It reports -1 if the caller's own
// label is missing from the profile, so a check for 0 is never vacuous.
func Run(f func(started func() int)) {
	finalizers.Do(runFinalizer)
	val := strconv.FormatInt(runs.Add(1), 10)
	pair := fmt.Sprintf("%q:%q", labelKey, val)
	pprof.Do(context.Background(), pprof.Labels(labelKey, val), func(context.Context) {
		f(func() int { return labelled(pair) - 1 })
	})
}

// runFinalizer returns once a finalizer has run, so the runtime's finalizer
// goroutine exists and has started.
func runFinalizer() {
	done := make(chan struct{})
	runtime.SetFinalizer(new([32]byte), func(*[32]byte) { close(done) })
	for {
		runtime.GC()
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// labelled counts the live goroutines whose labels include pair, from the
// goroutine profile's text form: each record opens with "<count> @ <pcs>",
// followed by a "# labels: {...}" line when the goroutines carry labels.
func labelled(pair string) int {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 1) // a bytes.Buffer write cannot fail
	total, count := 0, 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if n, _, ok := strings.Cut(line, " @ "); ok {
			if c, err := strconv.Atoi(n); err == nil {
				count = c
				continue
			}
		}
		if labels, ok := strings.CutPrefix(line, "# labels: "); ok && strings.Contains(labels, pair) {
			total += count
		}
	}
	return total
}
