package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
)

func sccsim(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// TestModes drives each mode once at a size that runs in well under a
// second: an experiment table, every figure schedule, and a checked
// single run.
func TestModes(t *testing.T) {
	code, out, errOut := sccsim(t, "-exp", "secondary", "-quick")
	if code != 0 || !strings.Contains(out, "secondary measures at 100 txn/s") || !strings.Contains(out, "2PL-PA") {
		t.Fatalf("-exp secondary: exit %d\n%s%s", code, out, errOut)
	}

	code, out, errOut = sccsim(t, "-fig", "all")
	if n := strings.Count(out, "verified serializable"); code != 0 || n != len(figures) {
		t.Fatalf("-fig all: exit %d, %d of %d schedules verified\n%s%s", code, n, len(figures), out, errOut)
	}
	code, out, _ = sccsim(t, "-fig", "2b")
	if code != 0 || !strings.Contains(out, "Fig 2(b)") || strings.Contains(out, "Fig 2(a)") {
		t.Fatalf("-fig 2b: exit %d\n%s", code, out)
	}

	code, out, errOut = sccsim(t, "-protocol", "SCC-kS(3)", "-rate", "120", "-txns", "200", "-warmup", "20", "-check")
	for _, want := range []string{"protocol           SCC-3S", "arrival rate       120.0 txn/s", "serializability    OK"} {
		if code != 0 || !strings.Contains(out, want) {
			t.Fatalf("single run: exit %d, missing %q\n%s%s", code, want, out, errOut)
		}
	}
}

// TestBadNames: a mistyped name exits 2 and lists the valid ones instead
// of panicking.
func TestBadNames(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"-protocol", "nope"}, []string{`unknown protocol "nope"`, "SCC-AK", "SCC-kS-PRIO(<k>)"}},
		{[]string{"-exp", "nope"}, []string{`unknown experiment "nope"`, "ablak", "secondary", "ablres", "all"}},
		{[]string{"-fig", "nope"}, []string{`unknown figure "nope"`, "1b", "8", "all"}},
		{[]string{"-exp", "all", "-fig", "all"}, []string{"not both"}},
	} {
		code, out, errOut := sccsim(t, c.args...)
		if code != 2 || out != "" {
			t.Errorf("%v: exit %d with output %q, want 2 and none", c.args, code, out)
		}
		for _, w := range c.want {
			if !strings.Contains(errOut, w) {
				t.Errorf("%v: stderr %q lacks %q", c.args, errOut, w)
			}
		}
	}
}

// TestFigAllGolden pins every line `sccsim -fig all` prints, the runtime's
// trace format included, against testdata/fig-all.golden. A simulator
// refactor must leave it byte-identical; regenerate it only for an
// intended change, with `go run ./cmd/sccsim -fig all >
// cmd/sccsim/testdata/fig-all.golden`.
func TestFigAllGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig-all.golden")
	if err != nil {
		t.Fatal(err)
	}
	code, out, errOut := sccsim(t, "-fig", "all")
	if code != 0 || errOut != "" {
		t.Fatalf("-fig all: exit %d\n%s", code, errOut)
	}
	if out != string(want) {
		t.Errorf("-fig all differs from testdata/fig-all.golden:\n%s", lineDiff(string(want), out))
	}
}

// lineDiff names the first line where got departs from want.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}
