package client

import (
	"slices"
	"testing"
	"time"

	"repro/internal/server/opts"
)

// TestAppendUpdateGolden pins the bytes of the frames Batch builds: a
// read, a write, a negative delta and every option token, appended after
// an earlier frame in the same burst buffer.
func TestAppendUpdateGolden(t *testing.T) {
	every := TxOpts{Value: 2.5, Deadline: 1500 * time.Microsecond, Gradient: 0.125,
		Family: opts.Family{Kind: opts.FamilyStep, StepFrac: 0.5}, Trace: true}
	for _, c := range []struct {
		ops  []Op
		o    TxOpts
		want string
	}{
		{[]Op{{Key: "a"}}, TxOpts{}, "REQ 7 UPD r:a\n"},
		{[]Op{{Key: "acct", Delta: 42, Write: true}}, TxOpts{Value: 10, Deadline: 100 * time.Millisecond},
			"REQ 7 UPD v=10 dl=100 w:acct:42\n"},
		{[]Op{{Key: "x", Delta: -9223372036854775808, Write: true}, {Key: "y"}}, TxOpts{},
			"REQ 7 UPD w:x:-9223372036854775808 r:y\n"},
		{[]Op{{Key: "a"}, {Key: "b", Delta: -3, Write: true}}, every,
			"REQ 7 UPD v=2.5 dl=1.5 grad=0.125 vf=step:0.5 trace=1 r:a w:b:-3\n"},
		{[]Op{{Key: "r", Write: true}}, TxOpts{Deadline: 500 * time.Nanosecond,
			Family: opts.Family{Kind: opts.FamilyRenewal, Renewals: 3}}, "REQ 7 UPD dl=0.0005 vf=renew:3 w:r:0\n"},
	} {
		if _, err := checkOps(c.ops); err != nil {
			t.Fatal(err)
		}
		const prev = "REQ 6 PING\n"
		got := string(appendUpdate([]byte(prev), 7, c.ops, c.o))
		if got != prev+c.want {
			t.Errorf("appendUpdate(%v, %+v) = %q, want %q", c.ops, c.o, got[len(prev):], c.want)
		}
	}
}

// TestParseUpdateResults: the in-place scan reads what the server writes
// and refuses a count or a field it does not.
func TestParseUpdateResults(t *testing.T) {
	for _, c := range []struct {
		body   string
		writes int
		want   []int64
		ok     bool
	}{
		{"", 0, []int64{}, true},
		{"5", 1, []int64{5}, true},
		{"10 -10", 2, []int64{10, -10}, true},
		{"", 1, nil, false},
		{"1 2", 1, nil, false},
		{"1 x", 2, nil, false},
	} {
		got, err := parseUpdateResults(c.body, c.writes)
		if (err == nil) != c.ok || !slices.Equal(got, c.want) {
			t.Errorf("parseUpdateResults(%q, %d) = %v, %v", c.body, c.writes, got, err)
		}
	}
}

// TestCheckKey: the ASCII loop and the rune fallback refuse the same
// separators strings.Fields and the op encoding split on.
func TestCheckKey(t *testing.T) {
	for key, ok := range map[string]bool{
		"a": true, "acct-7": true, "é": true, "é ": false, "a\u0085b": false,
		"": false, "a:b": false, "a b": false, "a\tb": false, "é:": false, "\xff": true,
	} {
		if err := checkKey(key); (err == nil) != ok {
			t.Errorf("checkKey(%q) = %v, want ok=%v", key, err, ok)
		}
	}
}
