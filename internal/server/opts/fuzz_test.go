package opts

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzParseToken drives arbitrary tokens through the codec and checks
// the invariants every accepted token must satisfy: all parsed fields
// are finite, the resulting value function is monotone non-increasing
// past its deadline (the contract ParseFamily enforces for vf= shapes),
// and Encode∘ParseToken is idempotent — re-encoding a parsed-back T
// reproduces the same wire bytes, so the client and server can never
// drift on what a token means. Append, the client's frame encoder,
// renders what wantTokens, a reference that shares no code with it, does.
func FuzzParseToken(f *testing.F) {
	for _, seed := range []string{
		"v=2.5", "v=NaN", "v=-1", "dl=50", "dl=1e15", "dl=-5", "dl=0.0000001",
		"grad=0.125", "grad=Inf", "trace=1", "trace=2",
		"vf=linear", "vf=cliff", "vf=step:0.5", "vf=step:1.1", "vf=step:NaN",
		"vf=renew:3", "vf=renew:0", "vf=renew:17", "vf=ramp", "vf=cliff:1",
		"tenant=acme", "tenant=a:b", "tenant=", "vv=1", "r:a", "w:a:1", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		var o T
		ok, err := o.ParseToken(tok)
		if !ok {
			if err != nil {
				t.Fatalf("unrecognized token %q returned error %v", tok, err)
			}
			return
		}
		if err != nil {
			if o != (T{}) {
				t.Fatalf("rejected token %q mutated options to %+v", tok, o)
			}
			return
		}
		// Accepted: every numeric field must be finite.
		for _, v := range []float64{o.Value, o.Gradient, o.Family.StepFrac} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted token %q carries non-finite field: %+v", tok, o)
			}
		}
		// The value function must be monotone non-increasing past the
		// deadline and worthless from its zero-crossing on.
		fn := o.Fn(0)
		prev := math.Inf(1)
		rel := fn.Deadline
		if rel <= 0 || rel > 10 {
			rel = 10
		}
		for i := 0; i <= 64; i++ {
			at := fn.Deadline + float64(i)*rel/2
			v := fn.At(at)
			if math.IsNaN(v) {
				t.Fatalf("token %q: At(%v) is NaN", tok, at)
			}
			if v > prev {
				t.Fatalf("token %q: value increases past deadline at %v (%v > %v)", tok, at, v, prev)
			}
			prev = v
		}
		// (With a relative tolerance: the linear decline's zero-crossing
		// division rounds, leaving an O(V*ulp) residue at huge deadlines.)
		if zc := fn.ZeroCrossing(); !math.IsInf(zc, 1) {
			if v := fn.At(zc + 1e-6); v > math.Abs(fn.V)*1e-12 {
				t.Fatalf("token %q: worth %v past zero-crossing %v", tok, v, zc)
			}
		}
		// Idempotence: encode, parse it all back, encode again.
		var b1 strings.Builder
		o.Encode(&b1)
		if a, want := string(o.Append([]byte("UPD"))), "UPD"+wantTokens(o); a != want {
			t.Fatalf("token %q: Append %q, want %q", tok, a, want)
		}
		var o2 T
		for _, tk := range strings.Fields(b1.String()) {
			if ok, err := o2.ParseToken(tk); !ok || err != nil {
				t.Fatalf("token %q: re-parse of encoded %q failed: %v, %v", tok, tk, ok, err)
			}
		}
		var b2 strings.Builder
		o2.Encode(&b2)
		if b1.String() != b2.String() {
			t.Fatalf("token %q: encode not idempotent: %q vs %q", tok, b1.String(), b2.String())
		}
	})
}

// wantTokens renders o's tokens field by field with fmt's %g: the wire
// bytes Append must produce, written out without strconv's append path.
func wantTokens(o T) string {
	var s string
	if o.Value > 0 {
		s += fmt.Sprintf(" v=%g", o.Value)
	}
	if o.Deadline > 0 {
		ms := float64(o.Deadline.Nanoseconds()) / 1e6
		if o.Deadline%time.Microsecond == 0 {
			ms = float64(o.Deadline.Microseconds()) / 1000
		}
		s += fmt.Sprintf(" dl=%g", ms)
	}
	if o.Gradient > 0 {
		s += fmt.Sprintf(" grad=%g", o.Gradient)
	}
	switch o.Family.Kind {
	case "", FamilyLinear:
	case FamilyStep:
		s += fmt.Sprintf(" vf=step:%g", o.Family.StepFrac)
	case FamilyRenewal:
		s += fmt.Sprintf(" vf=renew:%d", o.Family.Renewals)
	default:
		s += " vf=" + o.Family.Kind
	}
	if o.Trace {
		s += " trace=1"
	}
	return s
}
