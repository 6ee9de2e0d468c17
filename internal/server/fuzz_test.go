package server

import (
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzDispatch throws arbitrary request lines at the wire parser and the
// verb handlers behind it (dispatch/handleUPD argument parsing included).
// The server must never panic and must answer every line with exactly one
// well-formed response: OK..., NIL, SHED, or ERR... — nothing else, no
// embedded newlines. Seed corpus lives in testdata/fuzz/FuzzDispatch.
func FuzzDispatch(f *testing.F) {
	for _, seed := range []string{
		"PING",
		"GET a",
		"ADD a 5",
		"ADD a -3",
		"UPD v=2 dl=50 grad=0.1 r:a w:b:7",
		"UPD w:a:1 w:b:-1",
		"SUM a b c",
		"STATS",
		"REQ 1 PING",
		"UPD v=NaN w:a:1",
		"UPD dl=1e309 w:a:1",
		"UPD w::1 r: q:x:1",
		"ADD a 99999999999999999999",
		"GET \x00\xff",
		"UPD v= dl= grad= w:a:",
		"TXN BEGIN v=2 dl=50 grad=0.1",
		"TXN R 1 a",
		"TXN W 1 a 5",
		"TXN W 1 a =7",
		"TXN COMMIT 1",
		"TXN ABORT 2",
		"TXN BEGIN hello",
		"TXN W abc a 1",
		"TXN R 99999999999999999999 a",
	} {
		f.Add(seed)
	}
	s := New(Config{Shards: 2, Admission: AdmissionConfig{MaxConcurrent: 4, MaxQueue: 8}})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, line string) {
		// The transport hands dispatch whitespace-split tokens of one
		// line; embedded newlines would be separate lines on the wire.
		if strings.ContainsAny(line, "\n\r") {
			t.Skip()
		}
		// Sessions a previous input left open must not accumulate: each
		// holds an admission slot, and a fuzzer minting them faster than
		// they are reaped would wedge BEGIN in the admission queue.
		defer func() {
			for _, ss := range s.sessions.snapshot() {
				s.txnAbort(ss, nil)
			}
		}()
		resp := s.dispatchLine(line)
		if strings.ContainsAny(resp, "\n\r") {
			t.Fatalf("response embeds a line break: %q -> %q", line, resp)
		}
		switch {
		case strings.HasPrefix(resp, "OK"), resp == "NIL", resp == "SHED",
			strings.HasPrefix(resp, "ERR"):
		default:
			t.Fatalf("malformed response kind: %q -> %q", line, resp)
		}
		if utf8.ValidString(line) && !utf8.ValidString(resp) {
			t.Fatalf("valid input produced invalid UTF-8 response: %q -> %q", line, resp)
		}
	})
}

// FuzzSplitFields pins the reader's tokenizer to strings.Fields on
// arbitrary input: the ASCII scan and the fallback for lines with other
// bytes must split exactly where strings.Fields does, Unicode spaces
// included, whatever the reused slice held before.
func FuzzSplitFields(f *testing.F) {
	for _, seed := range []string{
		"", " ", "UPD v=2 dl=50 r:a w:b:7", "  REQ   1\tPING  ", "a\v\fb\r",
		"a\u0085b", "a b", "  lead", "tail \u0085", "k\xff \xc2", "é w:é:1",
	} {
		f.Add(seed)
	}
	dst := []string{"stale", "fields"}
	f.Fuzz(func(t *testing.T, s string) {
		dst = splitFields(dst, s)
		if want := strings.Fields(s); !slices.Equal(dst, want) {
			t.Fatalf("splitFields(%q) = %q, strings.Fields = %q", s, dst, want)
		}
	})
}
