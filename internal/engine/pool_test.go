package engine

import (
	"runtime"
	"strings"
	"testing"
)

// pooledGoroutines returns the ids of the goroutines now inside a Pool's
// worker loop, idle or busy.
func pooledGoroutines() map[string]bool {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := make(map[string]bool)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "engine.(*Pool).work(") {
			ids[strings.Fields(g)[1]] = true
		}
	}
	return ids
}

// newPooled returns how many pooled goroutines exist now that did not in
// before.
func newPooled(before map[string]bool) int {
	n := 0
	for id := range pooledGoroutines() {
		if !before[id] {
			n++
		}
	}
	return n
}

// TestStorePoolExitsOnClose: the goroutine a speculative shadow ran on
// stays pooled once its transaction is over, and Store.Close returns only
// after it has exited.
func TestStorePoolExitsOnClose(t *testing.T) {
	before := pooledGoroutines()
	s := Open(Config{Mode: SCC2S})
	readRuleSchedule(t, s, []string{"a", "b"}, "a")
	if st := s.Stats(); st.Forks != 1 || st.Promotions != 1 {
		t.Fatalf("forks %d, promotions %d: want the schedule's one promoted shadow", st.Forks, st.Promotions)
	}
	if n := newPooled(before); n != 1 {
		t.Fatalf("%d pooled goroutines after one shadow, want 1", n)
	}
	s.Close()
	if n := newPooled(before); n != 0 {
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
