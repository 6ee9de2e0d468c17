package engine

// Tests for the transaction value UpdateTracedResult takes: the live
// engine's VW-style commit deferment.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// updateValued runs fn at the given transaction value, untraced.
func updateValued(s *Store, value float64, fn func(*Tx) error) error {
	_, err := s.UpdateTracedResult(value, nil, nil, fn)
	return err
}

// TestLowValueDefersToHighValue forces the paper's Fig. 10 situation: a
// low-value transaction finishes first but its commit would abort a
// high-value transaction that already read the contended key. With
// deferment the high-value transaction commits first and keeps its work.
func TestLowValueDefersToHighValue(t *testing.T) {
	s := Open(Config{Mode: SCC2S})
	if err := s.Update(func(tx *Tx) error { return setInt(tx, "pos", 1) }); err != nil {
		t.Fatal(err)
	}

	hiRead := make(chan struct{})
	hiMayFinish := make(chan struct{})
	hiDone := make(chan error, 1)
	var once sync.Once
	// High-value transaction: reads "pos", then (after the low-value one
	// finished and is deferring) writes its result.
	go func() {
		hiDone <- updateValued(s, 100, func(tx *Tx) error {
			v, err := getInt(tx, "pos")
			if err != nil {
				return err
			}
			once.Do(func() { close(hiRead); <-hiMayFinish })
			return setInt(tx, "hi-result", v)
		})
	}()
	<-hiRead

	// Low-value transaction: writes "pos" (conflicting with the reader)
	// and finishes while the high-value one is still running. It must
	// defer; release the high-value transaction once the deferral is
	// observable, then check commit order.
	loDone := make(chan error, 1)
	go func() {
		loDone <- updateValued(s, 1, func(tx *Tx) error {
			return setInt(tx, "pos", 999)
		})
	}()
	// Wait until the low-value transaction registers its deferral.
	for {
		if s.Stats().Deferrals > 0 {
			break
		}
	}
	close(hiMayFinish)
	if err := <-hiDone; err != nil {
		t.Fatal(err)
	}
	if err := <-loDone; err != nil {
		t.Fatal(err)
	}

	// The high-value transaction read "pos" BEFORE the low-value write
	// committed: its snapshot must be the original value.
	b, _ := s.Get("hi-result")
	if got := btoi(b); got != 1 {
		t.Fatalf("hi-result = %d, want 1 (high-value work destroyed by an undeferred commit)", got)
	}
	b, _ = s.Get("pos")
	if got := btoi(b); got != 999 {
		t.Fatalf("pos = %d, want the low-value write to land afterwards", got)
	}
	if s.Stats().Deferrals == 0 {
		t.Fatal("no deferral recorded")
	}
}

// TestEqualValuesNeverDefer: plain Update transactions (value 0) must not
// pay any deferral cost.
func TestEqualValuesNeverDefer(t *testing.T) {
	s := Open(Config{Mode: SCC2S})
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.Update(func(tx *Tx) error {
				v, err := getInt(tx, "c")
				if err != nil {
					return err
				}
				return setInt(tx, "c", v+1)
			})
		}()
	}
	wg.Wait()
	if d := s.Stats().Deferrals; d != 0 {
		t.Fatalf("equal-value transactions deferred %d times", d)
	}
}

// TestValuedMixedLoadConserves: heavy mixed-value contention still
// produces serializable outcomes (no lost updates).
func TestValuedMixedLoadConserves(t *testing.T) {
	s := Open(Config{Mode: SCC2S})
	const n = 120
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		val := float64(i % 5)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := updateValued(s, val, func(tx *Tx) error {
				v, err := getInt(tx, "total")
				if err != nil {
					return err
				}
				return setInt(tx, "total", v+1)
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	b, _ := s.Get("total")
	if got := btoi(b); got != n {
		t.Fatalf("total = %d, want %d", got, n)
	}
}

// TestNoDeferralCycle: two valued transactions conflicting both ways must
// not deadlock (strict value dominance is acyclic; equal values skip).
func TestNoDeferralCycle(t *testing.T) {
	s := Open(Config{Mode: SCC2S})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		v := float64(i % 3)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = updateValued(s, v, func(tx *Tx) error {
				a, err := getInt(tx, "x")
				if err != nil {
					return err
				}
				b, err := getInt(tx, "y")
				if err != nil {
					return err
				}
				if err := setInt(tx, "x", b+1); err != nil {
					return err
				}
				return setInt(tx, "y", a+1)
			})
		}()
	}
	wg.Wait() // completing at all is the assertion
	if _, ok := s.Get("x"); !ok {
		t.Fatal("no writes landed")
	}
	_ = fmt.Sprintf
}

// TestDeferralEndsWhenProtectedRunAborts builds the park ⇄ defer cycle
// step by step: low-value D finishes and defers to high-value H, whose
// shadow is parked on D; a third commit then aborts H's optimistic run,
// so H's driver falls back to waiting on that shadow. Unless D lets go of
// a deferral that no longer protects anything, D waits for H, H for its
// shadow and the shadow for D, forever.
func TestDeferralEndsWhenProtectedRunAborts(t *testing.T) {
	s := Open(Config{Mode: SCC2S})
	hRead, hGo := make(chan struct{}), make(chan struct{})
	var once sync.Once
	done := make(chan error, 2)
	go func() { // H: reads k, then stalls mid-closure (first run only)
		done <- updateValued(s, 2, func(tx *Tx) error {
			v, err := getInt(tx, "k")
			if err != nil {
				return err
			}
			once.Do(func() { close(hRead); <-hGo })
			return setInt(tx, "h", v)
		})
	}()
	<-hRead
	go func() { // D: overwrites k — forks H's shadow, gated on D — and defers to H
		done <- updateValued(s, 1, func(tx *Tx) error { return setInt(tx, "k", 1) })
	}()
	for s.Stats().Deferrals == 0 {
		runtime.Gosched()
	}
	// A commit outranking both aborts H's optimistic run (it read k).
	if err := updateValued(s, 3, func(tx *Tx) error { return setInt(tx, "k", 3) }); err != nil {
		t.Fatal(err)
	}
	close(hGo)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("deadlock: D defers to H, H waits for its shadow, the shadow is parked on D")
		}
	}
}
