package spawncheck

import (
	"runtime"
	"testing"
	"time"
)

// TestRunCountsStartedGoroutines pins what started sees: the caller alone
// is 0, a goroutine started inside Run and one it starts in turn are
// counted, a goroutine started outside Run is not, and the count falls back
// to 0 once the started goroutines exit.
func TestRunCountsStartedGoroutines(t *testing.T) {
	outside := make(chan struct{})
	defer close(outside)
	go func() { <-outside }()

	Run(func(started func() int) {
		if n := started(); n != 0 {
			t.Fatalf("before starting any goroutine: started = %d", n)
		}
		stop, ready := make(chan struct{}), make(chan struct{})
		go func() {
			go func() { <-stop }()
			close(ready)
			<-stop
		}()
		<-ready
		if n := started(); n != 2 {
			t.Fatalf("with a goroutine and its child alive: started = %d, want 2", n)
		}
		close(stop)
		deadline := time.Now().Add(5 * time.Second)
		for started() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("started = %d after the goroutines were stopped", started())
			}
			runtime.Gosched()
		}
	})
}
