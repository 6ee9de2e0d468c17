package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// pooledGoroutines returns how many goroutines are now inside p's worker
// loop, idle or busy. It matches p as the receiver of the work frame, so
// the workers of other stores' pools in the process do not count.
func pooledGoroutines(p *Pool) int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return strings.Count(string(buf), fmt.Sprintf("engine.(*Pool).work(%p", p))
}

// TestStorePoolExitsOnClose: the goroutine a speculative shadow ran on
// stays pooled once its transaction is over, and Store.Close returns only
// after it has exited.
func TestStorePoolExitsOnClose(t *testing.T) {
	s := Open(Config{Mode: SCC2S})
	readRuleSchedule(t, s, []string{"a", "b"}, "a")
	if st := s.Stats(); st.Forks != 1 || st.Promotions != 1 {
		t.Fatalf("forks %d, promotions %d: want the schedule's one promoted shadow", st.Forks, st.Promotions)
	}
	if n := pooledGoroutines(&s.pool); n != 1 {
		t.Fatalf("%d pooled goroutines after one shadow, want 1", n)
	}
	s.Close()
	if n := pooledGoroutines(&s.pool); n != 0 {
		t.Fatalf("%d pooled goroutines outlived Close", n)
	}
}

// TestPoolRunsAfterClose: a run started after Close — a shadow forked by a
// transaction still draining — still runs, on a goroutine that is not
// pooled.
func TestPoolRunsAfterClose(t *testing.T) {
	var p Pool
	p.Close()
	ran := make(chan struct{})
	p.Go(func() { close(ran) })
	<-ran
	p.Close()
}
