package opts

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestParseTokenRoundTrip(t *testing.T) {
	in := T{Value: 2.5, Deadline: 50 * time.Millisecond, Gradient: 0.125}
	var b strings.Builder
	in.Encode(&b)
	var out T
	for _, tok := range strings.Fields(b.String()) {
		ok, err := out.ParseToken(tok)
		if !ok || err != nil {
			t.Fatalf("ParseToken(%q) = %v, %v", tok, ok, err)
		}
	}
	if out.Value != in.Value || out.Deadline != in.Deadline || out.Gradient != in.Gradient {
		t.Fatalf("round trip %+v -> %q -> %+v", in, b.String(), out)
	}
}

func TestParseTokenRejectsNonFinite(t *testing.T) {
	for tok, want := range map[string]error{
		"v=NaN":     ErrBadValue,
		"v=+Inf":    ErrBadValue,
		"v=":        ErrBadValue,
		"v=x":       ErrBadValue,
		"dl=NaN":    ErrBadDeadline,
		"dl=1e309":  ErrBadDeadline,
		"dl=":       ErrBadDeadline,
		"grad=Inf":  ErrBadGradient,
		"grad=-Inf": ErrBadGradient,
		"grad=":     ErrBadGradient,
	} {
		var o T
		ok, err := o.ParseToken(tok)
		if !ok || err != want {
			t.Errorf("ParseToken(%q) = %v, %v; want true, %v", tok, ok, err, want)
		}
	}
}

func TestParseTokenClampsExtremeDeadlines(t *testing.T) {
	// A positive sub-nanosecond deadline stays a deadline (the float to
	// Duration conversion would truncate it to "none").
	var o T
	if ok, err := o.ParseToken("dl=0.0000001"); !ok || err != nil {
		t.Fatalf("ParseToken = %v, %v", ok, err)
	}
	if o.Deadline <= 0 {
		t.Fatalf("sub-ns deadline truncated to %v, want > 0", o.Deadline)
	}
	// A deadline past Duration's range saturates far-future instead of
	// overflowing negative.
	if ok, err := o.ParseToken("dl=1e15"); !ok || err != nil {
		t.Fatalf("ParseToken = %v, %v", ok, err)
	}
	if o.Deadline != math.MaxInt64 {
		t.Fatalf("huge deadline = %v, want saturation", o.Deadline)
	}
	// Negative stays negative: Fn treats it as "no deadline", matching
	// the historical float parser.
	if ok, err := o.ParseToken("dl=-5"); !ok || err != nil {
		t.Fatalf("ParseToken = %v, %v", ok, err)
	}
	if o.Deadline >= 0 {
		t.Fatalf("negative deadline = %v, want < 0", o.Deadline)
	}
}

func TestParseTokenIgnoresNonOptions(t *testing.T) {
	for _, tok := range []string{"r:a", "w:a:1", "value=3", "V=3", "", "vv=1"} {
		var o T
		if ok, err := o.ParseToken(tok); ok || err != nil {
			t.Errorf("ParseToken(%q) = %v, %v; want false, nil", tok, ok, err)
		}
	}
}

func TestEncodeTinyDeadlineNeverZero(t *testing.T) {
	var b strings.Builder
	T{Deadline: 500 * time.Nanosecond}.Encode(&b)
	if b.String() == " dl=0" || b.String() == "" {
		t.Fatalf("sub-microsecond deadline encoded as %q", b.String())
	}
	var o T
	for _, tok := range strings.Fields(b.String()) {
		if ok, err := o.ParseToken(tok); !ok || err != nil {
			t.Fatalf("ParseToken(%q) = %v, %v", tok, ok, err)
		}
	}
	if o.Deadline <= 0 {
		t.Fatalf("tiny deadline round-tripped to %v, want > 0", o.Deadline)
	}
}

// TestAppendNumMatchesFloatForm: appendNum's integer path prints exactly
// what the 'g', -1 float form prints, on both sides of its 1e6 bound.
func TestAppendNumMatchesFloatForm(t *testing.T) {
	for _, v := range []float64{1, 10, 100, 999999, 1e6, 1234567, 0.5, 2.5, 1e21} {
		if got, want := string(appendNum(nil, v)), strconv.FormatFloat(v, 'g', -1, 64); got != want {
			t.Errorf("appendNum(%v) = %q, want %q", v, got, want)
		}
	}
	o := T{Value: 10, Deadline: 1500 * time.Nanosecond, Gradient: 1e6}
	if got, want := string(o.Append(nil)), " v=10 dl=0.0015 grad=1e+06"; got != want {
		t.Errorf("Append = %q, want %q", got, want)
	}
}

func TestEncodeOmitsZeroFields(t *testing.T) {
	var b strings.Builder
	T{}.Encode(&b)
	if b.String() != "" {
		t.Fatalf("zero T encoded to %q, want empty", b.String())
	}
	b.Reset()
	T{Value: 3}.Encode(&b)
	if b.String() != " v=3" {
		t.Fatalf("T{Value:3} encoded to %q", b.String())
	}
}

func TestParseFamilyAndTenant(t *testing.T) {
	// Accepted families round-trip through Encode.
	for _, tok := range []string{"vf=cliff", "vf=step:0.5", "vf=step:0", "vf=step:1", "vf=renew:1", "vf=renew:16"} {
		var o T
		if ok, err := o.ParseToken(tok); !ok || err != nil {
			t.Fatalf("ParseToken(%q) = %v, %v", tok, ok, err)
		}
		var b strings.Builder
		o.Encode(&b)
		if got := strings.TrimPrefix(b.String(), " "); got != tok {
			t.Errorf("Encode(%q) = %q", tok, got)
		}
	}
	// vf=linear parses as the zero family and encodes to nothing.
	var o T
	if ok, err := o.ParseToken("vf=linear"); !ok || err != nil {
		t.Fatalf("vf=linear: %v, %v", ok, err)
	}
	if o.Family != (Family{}) {
		t.Fatalf("vf=linear parsed to %+v", o.Family)
	}
	// Rejections: unknown kinds, non-finite or non-monotone shapes,
	// stray arguments.
	for _, tok := range []string{
		"vf=", "vf=ramp", "vf=cliff:1", "vf=linear:0", "vf=step", "vf=step:",
		"vf=step:NaN", "vf=step:Inf", "vf=step:-0.1", "vf=step:1.1",
		"vf=renew", "vf=renew:", "vf=renew:0", "vf=renew:17", "vf=renew:1.5", "vf=renew:x",
	} {
		var o T
		if ok, err := o.ParseToken(tok); !ok || err != ErrBadFamily {
			t.Errorf("ParseToken(%q) = %v, %v; want true, ErrBadFamily", tok, ok, err)
		}
	}
	// tenant= is not an option token; the verbs refuse it as a bad token.
	for _, tok := range []string{"tenant=acme", "tenant=a:b", "tenant="} {
		var o T
		if ok, err := o.ParseToken(tok); ok || err != nil {
			t.Errorf("ParseToken(%q) = %v, %v; want false, nil", tok, ok, err)
		}
	}
}

func TestFnFamilies(t *testing.T) {
	const now = 100.0
	// Cliff: full value to the deadline, zero after.
	f := T{Value: 8, Deadline: time.Second, Family: Family{Kind: FamilyCliff}}.Fn(now)
	if f.At(now+1) != 8 || f.At(now+1.01) != 0 || f.ZeroCrossing() != now+1 {
		t.Fatalf("cliff Fn: At(dl)=%v At(dl+)=%v zc=%v", f.At(now+1), f.At(now+1.01), f.ZeroCrossing())
	}
	// Step: one relative-deadline window at the fraction.
	f = T{Value: 8, Deadline: time.Second, Family: Family{Kind: FamilyStep, StepFrac: 0.25}}.Fn(now)
	if f.At(now+1.5) != 2 || f.At(now+2.5) != 0 {
		t.Fatalf("step Fn: At(mid)=%v At(past)=%v", f.At(now+1.5), f.At(now+2.5))
	}
	if f.ZeroCrossing() != now+2 {
		t.Fatalf("step zero-crossing = %v, want %v", f.ZeroCrossing(), now+2)
	}
	// Renewal: halving windows of one relative deadline each.
	f = T{Value: 8, Deadline: time.Second, Family: Family{Kind: FamilyRenewal, Renewals: 2}}.Fn(now)
	if f.At(now+1.5) != 4 || f.At(now+2.5) != 2 || f.At(now+3.5) != 0 {
		t.Fatalf("renewal Fn: %v %v %v", f.At(now+1.5), f.At(now+2.5), f.At(now+3.5))
	}
	// A family without a deadline degrades to the no-deadline default.
	f = T{Value: 8, Family: Family{Kind: FamilyCliff}}.Fn(now)
	if f.At(now+3600) != 8 {
		t.Fatal("family without deadline must not decline")
	}
}

func TestFnDefaults(t *testing.T) {
	const now = 10.0
	// Zero options: worth 1, effectively no deadline.
	f := T{}.Fn(now)
	if f.V != 1 || f.Gradient != 0 {
		t.Fatalf("zero-opts Fn = %+v", f)
	}
	if f.At(now+3600) != 1 {
		t.Fatal("no-deadline value declined within an hour")
	}
	if !math.IsInf(f.ZeroCrossing(), 1) {
		t.Fatal("no-deadline value function has a finite zero-crossing")
	}
	// Deadline without gradient: 45-degrees convention, zero at 2*dl.
	f = T{Value: 4, Deadline: 2 * time.Second}.Fn(now)
	if f.Deadline != now+2 || f.Gradient != 2 {
		t.Fatalf("45-degree Fn = %+v", f)
	}
	if got := f.ZeroCrossing(); math.Abs(got-(now+4)) > 1e-9 {
		t.Fatalf("zero-crossing = %v, want %v", got, now+4)
	}
	// Explicit gradient wins.
	f = T{Value: 4, Deadline: time.Second, Gradient: 1}.Fn(now)
	if f.Gradient != 1 {
		t.Fatalf("explicit gradient Fn = %+v", f)
	}
}
