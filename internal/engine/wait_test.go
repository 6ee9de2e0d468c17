package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hookProbe is a wait hook that counts its calls and closes called on
// the first; within must see it called before the test unblocks the wait.
type hookProbe struct {
	n      atomic.Int32
	once   sync.Once
	called chan struct{}
}

func newHookProbe() *hookProbe { return &hookProbe{called: make(chan struct{})} }

func (p *hookProbe) hook() {
	p.n.Add(1)
	p.once.Do(func() { close(p.called) })
}

// within fails the test unless the hook was called within a few seconds.
// A hook called after its receive instead of before fails it: each test
// releases the wait the hook should announce only once it has run.
func (p *hookProbe) within(t *testing.T, what string) {
	t.Helper()
	select {
	case <-p.called:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: the wait hook was not called before the wait", what)
	}
}

func incr(key string) func(*Tx) error {
	return func(tx *Tx) error {
		v, err := getInt(tx, key)
		if err != nil {
			return err
		}
		return setInt(tx, key, v+1)
	}
}

// TestBeforeWaitUncontended: a transaction that never waits never calls
// its hook — a one-key increment through group commit leads its own
// flush, over a log that does no I/O, and finds its verdict delivered.
func TestBeforeWaitUncontended(t *testing.T) {
	s := Open(Config{})
	defer s.Close()
	p := newHookProbe()
	for range 100 {
		if _, err := s.UpdateTracedResult(1, nil, p.hook, incr("k")); err != nil {
			t.Fatal(err)
		}
	}
	if n := p.n.Load(); n != 0 {
		t.Fatalf("hook called %d times by uncontended updates, want 0", n)
	}
}

// TestBeforeWaitDeferral: a finished transaction deferring to a
// higher-value conflicter (the Termination Rule, deferForValue) calls its
// hook before it waits. The conflicter holds its closure open until the
// hook has run.
func TestBeforeWaitDeferral(t *testing.T) {
	s := Open(Config{})
	defer s.Close()
	read, hold := make(chan struct{}), make(chan struct{})
	var once sync.Once
	high := make(chan error, 1)
	go func() {
		_, err := s.UpdateTracedResult(10, nil, nil, func(tx *Tx) error {
			if _, err := tx.Get("k"); err != nil {
				return err
			}
			once.Do(func() { close(read) })
			<-hold
			return nil
		})
		high <- err
	}()
	<-read
	p := newHookProbe()
	low := make(chan error, 1)
	go func() {
		_, err := s.UpdateTracedResult(1, nil, p.hook, incr("k"))
		low <- err
	}()
	p.within(t, "deferral")
	close(hold)
	if err := <-high; err != nil {
		t.Fatal(err)
	}
	if err := <-low; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Deferrals == 0 {
		t.Fatalf("stats = %+v, want a deferral", st)
	}
}

// TestBeforeWaitShadowReport: a driver whose optimistic run lost its
// conflict calls its hook before it waits on its speculative shadow's
// report while the shadow is parked at its gate (the Blocking Rule). The
// reader of k and j forks its shadow on a writer of k that holds its
// closure open, and a third transaction's write of j aborts its
// optimistic run; the writer of k resolves only once the hook has run.
func TestBeforeWaitShadowReport(t *testing.T) {
	s := Open(Config{Mode: SCC2S})
	defer s.Close()
	read, holdOpt, wrote, holdWriter := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	var execs atomic.Int32
	p := newHookProbe()
	done := make(chan error, 1)
	go func() {
		_, err := s.UpdateTracedResult(0, nil, p.hook, func(tx *Tx) error {
			for _, k := range []string{"k", "j"} {
				if _, err := tx.Get(k); err != nil {
					return err
				}
			}
			if execs.Add(1) == 1 {
				close(read)
				<-holdOpt
			}
			return tx.Set("out", []byte("1"))
		})
		done <- err
	}()
	<-read
	writer := make(chan error, 1)
	go func() {
		writer <- s.Update(func(tx *Tx) error {
			if err := tx.Set("k", []byte("1")); err != nil {
				return err
			}
			close(wrote)
			<-holdWriter
			return nil
		})
	}()
	<-wrote
	if err := s.Update(func(tx *Tx) error { return tx.Set("j", []byte("1")) }); err != nil {
		t.Fatal(err)
	}
	close(holdOpt)
	p.within(t, "shadow report")
	close(holdWriter)
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Forks != 1 || st.Promotions != 1 {
		t.Fatalf("stats = %+v, want one fork, promoted", st)
	}
}

// TestBeforeWaitCommitFollower: a commit queued behind a running flush —
// held open in its log sync by stallLog — calls its hook before it waits
// for its verdict when the log is Durable, and not when it is not: behind
// an in-memory flush a follower waits as for a latch.
func TestBeforeWaitCommitFollower(t *testing.T) {
	for _, durable := range []bool{true, false} {
		log := newStallLog()
		var cl CommitLog = log
		if !durable {
			cl = memStallLog{log}
		}
		s := Open(Config{})
		s.SetCommitLog(cl)
		first := setAll(t, s, "first")
		<-log.syncing
		p := newHookProbe()
		done := make(chan error, 1)
		go func() {
			_, err := s.UpdateTracedResult(0, nil, p.hook, incr("k"))
			done <- err
		}()
		if durable {
			p.within(t, "commit follower")
		} else {
			waitPending(t, s, 1)
		}
		log.release <- struct{}{}
		<-log.syncing // the leader flushes the follower's batch next
		log.release <- struct{}{}
		first.Wait()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if n, want := p.n.Load(), map[bool]int32{true: 1, false: 0}[durable]; n != want {
			t.Errorf("durable %v: hook called %d times, want %d", durable, n, want)
		}
		s.Close()
	}
}

// memStallLog is a stallLog that reports no I/O.
type memStallLog struct{ *stallLog }

func (memStallLog) Durable() bool { return false }

// TestBeforeWaitDurableBoundary: a flush leader calls its hook before its
// commit boundary syncs a Durable log — by the time the sync starts, the
// hook has run.
func TestBeforeWaitDurableBoundary(t *testing.T) {
	log := newStallLog()
	s := Open(Config{})
	s.SetCommitLog(log)
	defer s.Close()
	p := newHookProbe()
	done := make(chan error, 1)
	go func() {
		_, err := s.UpdateTracedResult(0, nil, p.hook, incr("k"))
		done <- err
	}()
	<-log.syncing
	select {
	case <-p.called:
	default:
		t.Error("the boundary's sync started before the wait hook was called")
	}
	log.release <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := p.n.Load(); n != 1 {
		t.Fatalf("hook called %d times, want 1", n)
	}
}
