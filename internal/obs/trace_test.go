package obs

import (
	"testing"
	"time"

	"repro/internal/obs/flight"
)

func TestTraceEpochToken(t *testing.T) {
	tr := NewTrace(time.Now())
	tr.Event(StageEnqueue)
	tr.Event(StageCommit)
	if s := tr.String(); len(ParseTrace(s)) != 2 {
		t.Fatalf("plain token %q did not round-trip", s)
	}
	tr.SetEpoch(42)
	s := tr.String()
	if s[0] != 'e' {
		t.Fatalf("epoch-stamped token %q missing e-prefix", s)
	}
	events, epoch := ParseTraceEpoch(s)
	if epoch != 42 || len(events) != 2 || events[0].Stage != StageEnqueue {
		t.Fatalf("ParseTraceEpoch(%q) = (%v, %d), want 2 events at epoch 42", s, events, epoch)
	}
	// ParseTrace accepts the extended grammar transparently.
	if got := ParseTrace(s); len(got) != 2 {
		t.Fatalf("ParseTrace(%q) = %v, want 2 events", s, got)
	}
	// SetEpoch(0) and nil traces are inert.
	tr.SetEpoch(0)
	if tr.Epoch() != 42 {
		t.Fatal("SetEpoch(0) must not clear the stamped epoch")
	}
	var nilTr *Trace
	nilTr.SetEpoch(7)
	if nilTr.Epoch() != 0 || nilTr.Retained() {
		t.Fatal("nil trace accessors must return zero values")
	}
}

func TestParseTraceMalformed(t *testing.T) {
	for _, in := range []string{
		"",
		"admit",                         // no offset
		"admit:",                        // empty offset
		":5",                            // empty stage
		"admit:x",                       // non-numeric offset
		"admit:-1",                      // negative offset
		"admit:5,,",                     // empty element
		";admit:5",                      // empty epoch prefix
		"e;admit:5",                     // epoch prefix with no digits
		"e0;admit:5",                    // epoch 0 is never allocated
		"ex7;admit:5",                   // non-numeric epoch
		"5;admit:5",                     // prefix missing the e marker
		"e7;",                           // epoch with no events
		"e7;admit",                      // valid prefix, malformed tail
		"e18446744073709551616;admit:5", // epoch overflows uint64
	} {
		ev, epoch := ParseTraceEpoch(in)
		if ev != nil || epoch != 0 {
			t.Fatalf("ParseTraceEpoch(%q) = (%v, %d), want rejection", in, ev, epoch)
		}
	}
}

func TestRecordedTraceFeedsFlightRing(t *testing.T) {
	rec := flight.New(1, 8)
	tr := NewRecordedTrace(time.Now(), rec.Server(), 99, false)
	tr.Event(StageEnqueue)
	tr.SetEpoch(5)
	tr.Event(StageInstall)
	if tr.String() != "" || tr.Retained() {
		t.Fatal("retain=false trace must not keep events for the reply token")
	}
	if evs := rec.Snapshot(); len(evs) != 0 {
		t.Fatalf("flight ring saw %d events before Flush, want 0", len(evs))
	}
	tr.Flush()
	evs := rec.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("flight ring saw %d events, want 2", len(evs))
	}
	// The whole buffered lifecycle carries the epoch known at flush
	// time, and the batch's sequence numbers are contiguous.
	if evs[0].Txn != 99 || evs[0].Name != StageEnqueue || evs[0].Epoch != 5 {
		t.Fatalf("first flight event wrong: %+v", evs[0])
	}
	if evs[1].Name != StageInstall || evs[1].Epoch != 5 || evs[1].Seq != evs[0].Seq+1 {
		t.Fatalf("post-SetEpoch flight event wrong: %+v", evs[1])
	}
	tr.Flush() // idempotent: nothing pending
	if evs := rec.Snapshot(); len(evs) != 2 {
		t.Fatalf("re-Flush re-recorded events: %d", len(evs))
	}

	// retain=true keeps both surfaces: the reply snapshot survives the
	// flush that feeds the ring.
	tr2 := NewRecordedTrace(time.Now(), rec.Server(), 100, true)
	tr2.Event(StageAdmit)
	tr2.Flush()
	tr2.Flush()
	if len(tr2.Snapshot()) != 1 || !tr2.Retained() {
		t.Fatal("retain=true trace must keep events across Flush")
	}
	if evs := rec.Snapshot(); len(evs) != 3 {
		t.Fatalf("flight ring saw %d events, want 3", len(evs))
	}
}

// FuzzParseTrace holds the epoch-extended grammar to its contract:
// never panic, and accept-then-roundtrip anything String() can emit.
func FuzzParseTrace(f *testing.F) {
	for _, seed := range []string{
		"enqueue:0,admit:1200,commit:88000",
		"e42;enqueue:0,install:500",
		"e1;park:3",
		"admit:-1",
		"e0;admit:5",
		"e;x:1",
		";;",
		"e18446744073709551615;a:0",
		"stage:9223372036854775807",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		events, epoch := ParseTraceEpoch(s)
		if events == nil {
			if epoch != 0 {
				t.Fatalf("rejected input %q returned epoch %d", s, epoch)
			}
			return
		}
		for _, e := range events {
			if e.Stage == "" || e.At < 0 {
				t.Fatalf("accepted malformed event %+v from %q", e, s)
			}
		}
		if got := ParseTrace(s); len(got) != len(events) {
			t.Fatalf("ParseTrace/ParseTraceEpoch disagree on %q: %d vs %d", s, len(got), len(events))
		}
	})
}
