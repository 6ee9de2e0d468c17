package server

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/server/opts"
	"repro/internal/value"
)

func TestAdmissionFastPath(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2})
	f := a.FnOf(opts.T{Value: 1})
	if err := a.Acquire(f, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(f, 1); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.Admitted != 2 || st.InFlight != 2 || st.Depth != 0 {
		t.Errorf("stats = %+v", st)
	}
	a.Release(time.Millisecond, 1)
	if st := a.Stats(); st.InFlight != 1 {
		t.Errorf("after release InFlight = %d", st.InFlight)
	}
}

func TestAdmissionShedsExpired(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1})
	// A value function already past its zero-crossing: deadline in the
	// past and a gradient that consumed the whole value.
	f := value.Fn{V: 1, Deadline: -10, Gradient: 1}
	if err := a.Acquire(f, 1); !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if st := a.Stats(); st.Shed != 1 {
		t.Errorf("shed = %d, want 1", st.Shed)
	}
}

func TestAdmissionOrdersByExpectedValue(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1})
	if err := a.Acquire(a.FnOf(opts.T{Value: 1}), 1); err != nil {
		t.Fatal(err)
	}

	// Two waiters: low value enqueued first, high value second.
	type result struct {
		name string
		err  error
	}
	results := make(chan result, 2)
	var wg sync.WaitGroup
	start := func(name string, v float64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := a.Acquire(a.FnOf(opts.T{Value: v, Deadline: 10 * time.Second}), 1)
			results <- result{name, err}
			if err == nil {
				a.Release(time.Millisecond, 1)
			}
		}()
	}
	start("low", 1)
	// Let "low" reach the queue first.
	waitDepth(t, a, 1)
	start("high", 100)
	waitDepth(t, a, 2)

	a.Release(time.Millisecond, 1)
	first := <-results
	if first.err != nil {
		t.Fatal(first.err)
	}
	if first.name != "high" {
		t.Errorf("dispatched %q first, want the high-value waiter", first.name)
	}
	second := <-results
	if second.err != nil {
		t.Fatal(second.err)
	}
	wg.Wait()
}

func TestAdmissionQueueOverflowEvictsLowestValue(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1, MaxQueue: 1})
	if err := a.Acquire(a.FnOf(opts.T{Value: 1}), 1); err != nil {
		t.Fatal(err)
	}
	lowDone := make(chan error, 1)
	go func() { lowDone <- a.Acquire(a.FnOf(opts.T{Value: 1, Deadline: 10 * time.Second}), 1) }()
	waitDepth(t, a, 1)
	// Queue is full; a higher-value arrival evicts the parked low-value
	// waiter.
	highDone := make(chan error, 1)
	go func() { highDone <- a.Acquire(a.FnOf(opts.T{Value: 100, Deadline: 10 * time.Second}), 1) }()
	if err := <-lowDone; !errors.Is(err, ErrShed) {
		t.Fatalf("low waiter: err = %v, want ErrShed", err)
	}
	a.Release(time.Millisecond, 1)
	if err := <-highDone; err != nil {
		t.Fatalf("high waiter: %v", err)
	}
}

func TestReadmitShedsExpired(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 2})
	f := a.FnOf(opts.T{Value: 1})
	if err := a.Acquire(f, 1); err != nil {
		t.Fatal(err)
	}
	// A cross-shard retry whose value function has crossed zero: the
	// slot must come back even though the caller is refused.
	expired := value.Fn{V: 1, Deadline: -10, Gradient: 1}
	if err := a.Readmit(expired, 1, nil); !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if st := a.Stats(); st.InFlight != 0 {
		t.Errorf("InFlight = %d after shed readmit, want 0 (slot surrendered)", st.InFlight)
	}
}

func TestReadmitKeepsLiveTransaction(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1})
	f := a.FnOf(opts.T{Value: 5})
	if err := a.Acquire(f, 1); err != nil {
		t.Fatal(err)
	}
	// With the only slot held by the caller itself, Readmit must hand
	// the freed slot straight back — no deadlock, still in flight.
	if err := a.Readmit(f, 1, nil); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.InFlight != 1 {
		t.Errorf("InFlight = %d after readmit, want 1", st.InFlight)
	}
	a.Release(time.Millisecond, 1)
}

func TestReadmitCompetesByExpectedValue(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1})
	if err := a.Acquire(a.FnOf(opts.T{Value: 10, Deadline: 10 * time.Second}), 1); err != nil {
		t.Fatal(err)
	}
	lowDone := make(chan error, 1)
	go func() { lowDone <- a.Acquire(a.FnOf(opts.T{Value: 1, Deadline: 10 * time.Second}), 1) }()
	waitDepth(t, a, 1)

	// The retrying transaction outvalues the parked waiter, so it must
	// win its own freed slot in the same sweep — not hand it to the
	// low-value waiter and queue behind it.
	if err := a.Readmit(a.FnOf(opts.T{Value: 100, Deadline: 10 * time.Second}), 1, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-lowDone:
		t.Fatalf("low-value waiter was dispatched over the high-value readmit (err=%v)", err)
	default:
	}
	a.Release(time.Millisecond, 1)
	if err := <-lowDone; err != nil {
		t.Fatal(err)
	}
	a.Release(time.Millisecond, 1)
}

// TestAdmissionClose pins shutdown: Close sheds a waiter parked behind
// a held slot, and every later Acquire and Readmit is shed at once. The
// waiter is parked with enqueueLocked — the step Acquire takes when no
// slot is free — so the test needs no goroutine and no polling.
func TestAdmissionClose(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1})
	f := a.FnOf(opts.T{Value: 5, Deadline: 10 * time.Second})
	if err := a.Acquire(f, 1); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	w := a.enqueueLocked(f, 1)
	a.mu.Unlock()
	if w == nil || a.Stats().Depth != 1 {
		t.Fatalf("waiter not parked: %+v", a.Stats())
	}

	a.Close()
	if err := <-w.grant; !errors.Is(err, ErrShed) {
		t.Fatalf("parked waiter got %v on Close, want ErrShed", err)
	}
	if err := a.Acquire(f, 1); !errors.Is(err, ErrShed) {
		t.Fatalf("Acquire after Close = %v, want ErrShed", err)
	}
	if err := a.Readmit(f, 1, nil); !errors.Is(err, ErrShed) {
		t.Fatalf("Readmit after Close = %v, want ErrShed", err)
	}
	if st := a.Stats(); st.Shed != 3 || st.Depth != 0 || st.Admitted != 1 {
		t.Errorf("stats = %+v, want Shed 3, Depth 0, Admitted 1", st)
	}
}

func waitDepth(t *testing.T, a *Admission, depth int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.Stats().Depth < depth {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth never reached %d", depth)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionOpTimeLearning(t *testing.T) {
	a := NewAdmission(AdmissionConfig{MaxConcurrent: 1})
	for i := 0; i < 200; i++ {
		if err := a.Acquire(a.FnOf(opts.T{Value: 1}), 4); err != nil {
			t.Fatal(err)
		}
		a.Release(8*time.Millisecond, 4) // 2ms per op observed
	}
	got := a.Stats().OpTime
	if got < 1.5e-3 || got > 2.5e-3 {
		t.Errorf("op-time estimate = %v, want ~2ms", got)
	}
}
