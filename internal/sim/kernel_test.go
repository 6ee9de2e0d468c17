package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestOrdering(t *testing.T) {
	k := New()
	var got []int
	k.At(3, func() { got = append(got, 3) })
	k.At(1, func() { got = append(got, 1) })
	k.At(2, func() { got = append(got, 2) })
	k.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 3 {
		t.Fatalf("Now = %v, want 3", k.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	k := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant order = %v, want scheduling order", got)
		}
	}
}

func TestAfter(t *testing.T) {
	k := New()
	var at Time
	k.After(2, func() {
		k.After(3, func() { at = k.Now() })
	})
	k.Run()
	if at != 5 {
		t.Fatalf("nested After fired at %v, want 5", at)
	}
}

func TestCancel(t *testing.T) {
	k := New()
	fired := false
	e := k.At(1, func() { fired = true })
	k.Cancel(e)
	k.Cancel(e) // double cancel is a no-op
	k.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelDuringRun(t *testing.T) {
	k := New()
	fired := false
	var e *Event
	e = k.At(2, func() { fired = true })
	k.At(1, func() { k.Cancel(e) })
	k.Run()
	if fired {
		t.Fatal("event fired after being canceled by an earlier event")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New()
	k.At(5, func() {})
	k.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	k.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	k := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	k.After(-1, func() {})
}

func TestStop(t *testing.T) {
	k := New()
	count := 0
	for i := 0; i < 10; i++ {
		k.At(Time(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Run()
	if count != 3 {
		t.Fatalf("fired %d events after Stop at 3", count)
	}
	k.Run() // resumes
	if count != 10 {
		t.Fatalf("fired %d events total, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	var got []Time
	for _, at := range []Time{1, 2, 3, 4} {
		at := at
		k.At(at, func() { got = append(got, at) })
	}
	k.RunUntil(2.5)
	if len(got) != 2 || k.Now() != 2.5 {
		t.Fatalf("RunUntil(2.5): fired %v, now %v", got, k.Now())
	}
	k.RunUntil(10)
	if len(got) != 4 || k.Now() != 10 {
		t.Fatalf("RunUntil(10): fired %v, now %v", got, k.Now())
	}
}

func TestStepEmpty(t *testing.T) {
	k := New()
	if k.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

// TestRandomizedOrdering schedules many events at random times and checks
// they fire in nondecreasing time order with FIFO tie-breaking.
func TestRandomizedOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	k := New()
	type stamp struct {
		at  Time
		seq int
	}
	var fired []stamp
	n := 2000
	for i := 0; i < n; i++ {
		at := Time(rng.Intn(100))
		seq := i
		k.At(at, func() { fired = append(fired, stamp{at, seq}) })
	}
	k.Run()
	if len(fired) != n {
		t.Fatalf("fired %d, want %d", len(fired), n)
	}
	if !sort.SliceIsSorted(fired, func(i, j int) bool {
		if fired[i].at != fired[j].at {
			return fired[i].at < fired[j].at
		}
		return fired[i].seq < fired[j].seq
	}) {
		t.Fatal("events fired out of (time, seq) order")
	}
}

// TestDeterminism verifies identical schedules replay identically.
func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		k := New()
		var trace []Time
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, k.Now())
			if depth < 4 {
				for i := 0; i < 3; i++ {
					k.After(Time(rng.Float64()), func() { spawn(depth + 1) })
				}
			}
		}
		k.At(0, func() { spawn(0) })
		k.Run()
		return trace
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCancelAlreadyFired(t *testing.T) {
	k := New()
	e := k.At(1, func() {})
	k.Run()
	k.Cancel(e) // must not panic
}

func BenchmarkScheduleAndFire(b *testing.B) {
	k := New()
	for i := 0; i < b.N; i++ {
		k.After(1, func() {})
		k.Step()
	}
}
