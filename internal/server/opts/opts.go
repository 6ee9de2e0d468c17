// Package opts is the canonical codec for the wire protocol's value-
// function options. Every valued verb — UPD, TXN BEGIN — carries the
// same tokens (`v=<f>` worth, `dl=<ms>` relative soft deadline,
// `grad=<g>` penalty gradient, paper Def. 2, plus `vf=<family>`
// post-deadline shape), and before this package each of server.go,
// client.go, and the admission path grew its own parser or encoder for
// them. Now there is exactly one: the server
// parses tokens with ParseToken (the single place non-finite floats are
// rejected), the client renders them with Append, and the admission
// queue and the replica lag gate both obtain the resulting value.Fn
// through Fn. docs/PROTOCOL.md specifies the tokens normatively.
package opts

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/value"
)

// Errors returned by ParseToken, one per malformed option token. The
// texts are part of the wire protocol: the server prefixes them with
// "ERR " verbatim, and the conformance suite pins them.
var (
	ErrBadValue    = errors.New("bad v=")
	ErrBadDeadline = errors.New("bad dl=")
	ErrBadGradient = errors.New("bad grad=")
	ErrBadFamily   = errors.New("bad vf=")
	ErrBadTrace    = errors.New("bad trace=")
)

// Value-family kinds for Family.Kind, the vf= token's first field.
const (
	FamilyLinear  = "linear"
	FamilyCliff   = "cliff"
	FamilyStep    = "step"
	FamilyRenewal = "renew"
)

// Family selects the post-deadline shape of a request's value function
// (the vf= token): "" or FamilyLinear is the Def. 2 linear decline,
// FamilyCliff drops to zero at the deadline, FamilyStep keeps StepFrac
// of the value for one relative deadline then drops to zero, and
// FamilyRenewal halves the value each relative deadline for Renewals
// windows. ParseFamily is the single place shapes are validated: every
// accepted family is monotone non-increasing past the deadline.
type Family struct {
	Kind     string
	StepFrac float64 // FamilyStep: fraction of the value retained, in [0, 1]
	Renewals int     // FamilyRenewal: number of half-value windows, in 1..16
}

// maxRenewals bounds the renewal chain: 2^-17 of the value is noise, and
// an unbounded n would let a client stretch its shed horizon (Renewals *
// relative deadline) arbitrarily far.
const maxRenewals = 16

// ParseFamily parses a vf= token payload ("linear", "cliff",
// "step:<frac>", "renew:<n>"). It is the one place value-function shapes
// are validated — non-finite fields and shapes that would not be
// monotone non-increasing after the deadline (step fractions above 1,
// renewal counts outside 1..16) are rejected with ErrBadFamily.
func ParseFamily(s string) (Family, error) {
	kind, arg, hasArg := strings.Cut(s, ":")
	switch kind {
	case FamilyLinear:
		if hasArg {
			return Family{}, ErrBadFamily
		}
		return Family{}, nil
	case FamilyCliff:
		if hasArg {
			return Family{}, ErrBadFamily
		}
		return Family{Kind: FamilyCliff}, nil
	case FamilyStep:
		frac, err := parseFinite(arg)
		if !hasArg || err != nil || frac < 0 || frac > 1 {
			return Family{}, ErrBadFamily
		}
		return Family{Kind: FamilyStep, StepFrac: frac}, nil
	case FamilyRenewal:
		n, err := strconv.Atoi(arg)
		if !hasArg || err != nil || n < 1 || n > maxRenewals {
			return Family{}, ErrBadFamily
		}
		return Family{Kind: FamilyRenewal, Renewals: n}, nil
	}
	return Family{}, ErrBadFamily
}

// T carries one request's value-function options in client-facing units:
// worth if committed by the deadline, the relative soft deadline, and
// the value lost per second past it. The zero value means "worth 1, no
// deadline" (the protocol's defaults, applied by Fn).
type T struct {
	Value    float64
	Deadline time.Duration
	Gradient float64
	// Family is the vf= post-deadline shape; the zero value is the
	// linear decline.
	Family Family
	// Trace requests a lifecycle trace: the final verdict reply carries a
	// trace= token with the transaction's stage timeline (docs/PROTOCOL.md,
	// "Lifecycle traces").
	Trace bool
}

// ParseToken consumes one option token into o. It reports whether tok
// was an option token at all (v=/dl=/grad=/vf=/trace= prefixed);
// a recognized token that fails to parse — including any non-finite
// float and any non-monotone-after-deadline shape — returns the matching
// ErrBad* error. This is the only place the protocol validates
// value-function options.
func (o *T) ParseToken(tok string) (bool, error) {
	switch {
	case strings.HasPrefix(tok, "v="):
		f, err := parseFinite(tok[2:])
		if err != nil {
			return true, ErrBadValue
		}
		o.Value = f
		return true, nil
	case strings.HasPrefix(tok, "dl="):
		ms, err := parseFinite(tok[3:])
		if err != nil {
			return true, ErrBadDeadline
		}
		o.Deadline = clampDuration(ms * float64(time.Millisecond))
		return true, nil
	case strings.HasPrefix(tok, "grad="):
		g, err := parseFinite(tok[5:])
		if err != nil {
			return true, ErrBadGradient
		}
		o.Gradient = g
		return true, nil
	case strings.HasPrefix(tok, "vf="):
		fam, err := ParseFamily(tok[3:])
		if err != nil {
			return true, ErrBadFamily
		}
		o.Family = fam
		return true, nil
	case strings.HasPrefix(tok, "trace="):
		switch tok[6:] {
		case "1":
			o.Trace = true
		case "0":
			o.Trace = false
		default:
			return true, ErrBadTrace
		}
		return true, nil
	}
	return false, nil
}

// clampDuration converts a float nanosecond count to a Duration without
// the conversion's lies: a positive sub-nanosecond value stays a (tiny)
// positive duration instead of becoming zero ("none"), and a value past
// Duration's range saturates far-future instead of overflowing negative.
func clampDuration(ns float64) time.Duration {
	switch {
	case ns >= math.MaxInt64:
		return math.MaxInt64
	case ns > 0 && ns < 1:
		return 1
	}
	return time.Duration(ns)
}

func parseFinite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, errors.New("non-finite")
	}
	return f, nil
}

// Append appends the canonical wire tokens for o to b, each preceded by
// one space, and returns the extended slice; zero (or negative) fields
// are omitted, matching the protocol's defaults. The deadline is rendered
// in milliseconds with %g, exactly what ParseToken reads back.
func (o T) Append(b []byte) []byte {
	if o.Value > 0 {
		b = appendNum(append(b, " v="...), o.Value)
	}
	if o.Deadline > 0 {
		// Microsecond-multiple deadlines render exactly as before; a
		// deadline with sub-microsecond precision falls back to the
		// nanosecond-exact form so a tiny positive deadline never
		// encodes as "dl=0" (= none) — the mirror of ParseToken's clamp.
		var ms float64
		if o.Deadline%time.Microsecond == 0 {
			ms = float64(o.Deadline.Microseconds()) / 1000
		} else {
			ms = float64(o.Deadline.Nanoseconds()) / 1e6
		}
		b = appendNum(append(b, " dl="...), ms)
	}
	if o.Gradient > 0 {
		b = appendNum(append(b, " grad="...), o.Gradient)
	}
	switch o.Family.Kind {
	case "", FamilyLinear:
	case FamilyStep:
		b = strconv.AppendFloat(append(b, " vf=step:"...), o.Family.StepFrac, 'g', -1, 64)
	case FamilyRenewal:
		b = strconv.AppendInt(append(b, " vf=renew:"...), int64(o.Family.Renewals), 10)
	default:
		b = append(append(b, " vf="...), o.Family.Kind...)
	}
	if o.Trace {
		b = append(b, " trace=1"...)
	}
	return b
}

// appendNum appends v as strconv's 'g', -1 form renders it. That form
// prints a whole number below 1e6 as plain digits, so such values take
// the integer formatter; 1e6 and up print with an exponent and stay on
// the float path.
func appendNum(b []byte, v float64) []byte {
	if v > 0 && v < 1e6 && v == math.Trunc(v) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Encode writes Append's tokens for o to b.
func (o T) Encode(b *strings.Builder) { b.Write(o.Append(make([]byte, 0, 64))) }

// Fn builds the value function for a request arriving at absolute time
// now (seconds in the caller's clock base): worth Value (default 1)
// until now+Deadline, then declining per the vf= family. The default
// family is the Def. 2 linear decline at Gradient per second; a deadline
// with no gradient defaults to losing the full value one relative
// deadline past it — the workload model's "45 degrees" convention. The
// step and renewal families use the same convention for their window
// width: one relative deadline. No deadline means effectively never
// declining (a one-year horizon) regardless of family — a shape needs a
// deadline to hang off.
func (o T) Fn(now float64) value.Fn {
	v := o.Value
	if v <= 0 {
		v = 1
	}
	dl := o.Deadline.Seconds()
	if dl <= 0 {
		return value.Fn{V: v, Deadline: now + 365*24*3600, Gradient: 0}
	}
	f := value.Fn{V: v, Deadline: now + dl}
	switch o.Family.Kind {
	case FamilyCliff:
		f.Shape = value.ShapeCliff
	case FamilyStep:
		f.Shape = value.ShapeStep
		f.Window = dl
		f.StepFrac = o.Family.StepFrac
	case FamilyRenewal:
		f.Shape = value.ShapeRenewal
		f.Window = dl
		f.Renewals = o.Family.Renewals
	default:
		grad := o.Gradient
		if grad <= 0 {
			grad = v / dl
		}
		f.Gradient = grad
	}
	return f
}
