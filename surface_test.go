package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// wireUse is one wireSurface entry. Either file and token name a non-test
// user that reaches the name (the file must still contain the token), or
// reason says why the name stays without one: a deployment setting, or
// the tests that need it.
type wireUse struct {
	file, token string
	reason      string
}

func user(file, token string) wireUse { return wireUse{file: file, token: token} }
func kept(reason string) wireUse      { return wireUse{reason: reason} }

// wireSurface maps every name on the operator surface — wire verbs,
// option tokens, vf= families, sccserve and sccload flags, environment
// variables and HTTP paths — to what reaches it. TestWireSurface reads
// the names from their single sources, so a name nothing reaches fails
// the build until it is deleted or its user is named here, and an entry
// for a name that is gone fails until the entry goes too.
var wireSurface = map[string]wireUse{
	// Verbs: the case labels of dispatchVerb, follower.read and handleTXN.
	"verb PING":  user("bench/probe.go", "muxes[0].Ping()"),
	"verb GET":   user("bench/run.go", "e.muxes[0].Get(k)"),
	"verb ADD":   user("scripts/e2e_failover.sh", "ADD fencecheck 1"),
	"verb UPD":   user("internal/loadgen/loadgen.go", "s.loop(r.Pipeline, m.Batch)"),
	"verb SUM":   user("internal/loadgen/audit.go", "c.Sum(keys...)"),
	"verb STATS": user("internal/loadgen/pool.go", "c.Stats()"),
	"verb HEAD":  user("internal/repl/replica.go", `"HEAD\n"`),
	"verb TOPO":  user("internal/cluster/node.go", `"TOPO\n"`),
	"verb TXN":   user("internal/loadgen/loadgen.go", "m.Do(r.Opts"),
	"verb REQ":   user("internal/loadgen/loadgen.go", "client.DialMux(r.Pool.Primary())"),
	"verb REPL":  user("internal/repl/replica.go", `"REPL %d\n"`),
	"verb ACK":   user("internal/repl/replica.go", `"ACK %d\n"`),
	"verb SNAP":  user("internal/repl/replica.go", `"SNAP\n"`),

	"verb TXN BEGIN":  user("bench/driver.go", "m.Begin(client.TxOpts"),
	"verb TXN R":      user("internal/loadgen/loadgen.go", "t.Get(op.Key)"),
	"verb TXN W":      user("internal/loadgen/loadgen.go", "t.Add(op.Key, op.Delta)"),
	"verb TXN COMMIT": user("internal/loadgen/loadgen.go", "t.Commit()"),
	"verb TXN ABORT":  user("bench/driver.go", "tx.Abort()"),

	// Option tokens (opts.ParseToken) and vf= families (opts.ParseFamily).
	"token v=":     user("cmd/sccload/main.go", "Value:    t.Class.Value"),
	"token dl=":    user("cmd/sccload/main.go", "Deadline: time.Duration(t.RelDeadline()"),
	"token grad=":  user("cmd/sccload/main.go", "Gradient: t.PenaltyGradient()"),
	"token vf=":    user("internal/scenario/run.go", "Family: fam"),
	"token trace=": user("bench/driver.go", "Trace: phases[p].trace"),
	"vf linear":    user("internal/scenario/scenario.go", `families := []string{"linear"`),
	"vf cliff":     user("internal/scenario/scenario.go", `Family:      "cliff"`),
	"vf step":      user("internal/scenario/scenario.go", `"step:0.5"`),
	"vf renew":     user("internal/scenario/scenario.go", `"renew:4"`),

	// sccserve flags.
	"flag sccserve -addr":              user("scripts/e2e_recover.sh", `SERVE_FLAGS=(-addr "$ADDR"`),
	"flag sccserve -shards":            user("scripts/e2e_recover.sh", "-shards 8 -mode occ-bc"),
	"flag sccserve -mode":              user("scripts/e2e_recover.sh", "-mode occ-bc"),
	"flag sccserve -concurrency":       kept("deployment capacity: admission slots, sized to the host's cores"),
	"flag sccserve -queue":             kept("deployment capacity: admission queue bound, sized to the host's memory and the clients' patience"),
	"flag sccserve -replica-of":        user("scripts/e2e_chaos.sh", `-replica-of "$ADDR"`),
	"flag sccserve -data-dir":          user("scripts/e2e_recover.sh", `-data-dir "$DATA"`),
	"flag sccserve -fsync":             user("scripts/e2e_chaos.sh", "-fsync group -ckpt-every 256"),
	"flag sccserve -ckpt-every":        user("scripts/e2e_recover.sh", "-ckpt-every 512"),
	"flag sccserve -metrics-addr":      user("scripts/e2e_recover.sh", `-metrics-addr "127.0.0.1:$METRICS_PORT"`),
	"flag sccserve -log-level":         user("scripts/e2e_chaos.sh", "-log-level warn"),
	"flag sccserve -cluster-self":      user("scripts/e2e_failover.sh", `-cluster-self "$ADDR_B"`),
	"flag sccserve -cluster-peers":     user("scripts/e2e_failover.sh", `-cluster-peers "$ADDR_A"`),
	"flag sccserve -cluster-lease":     user("scripts/e2e_failover.sh", "-cluster-lease 250ms"),
	"flag sccserve -repl-sync":         user("scripts/e2e_failover.sh", "-repl-sync -repl-sync-timeout 2s"),
	"flag sccserve -repl-sync-timeout": user("scripts/e2e_failover.sh", "-repl-sync -repl-sync-timeout 2s"),

	// sccload flags.
	"flag sccload -addr":             user("scripts/e2e_failover.sh", `sccload" -addr "$ADDR_A,$ADDR_B"`),
	"flag sccload -clients":          user("scripts/e2e_recover.sh", "-clients 16 -ops 100 -mix low"),
	"flag sccload -ops":              user("scripts/e2e_recover.sh", "-clients 16 -ops 100 -mix low"),
	"flag sccload -mix":              user("scripts/e2e_interactive.sh", "-mix two"),
	"flag sccload -keys":             user("scripts/e2e_recover.sh", `-keys "$KEYS" -pipeline 8`),
	"flag sccload -pipeline":         user("scripts/e2e_recover.sh", `-pipeline 8 -run-id "$RUN_ID"`),
	"flag sccload -interactive":      user("scripts/e2e_interactive.sh", "-interactive -think 1ms"),
	"flag sccload -think":            user("scripts/e2e_interactive.sh", "-interactive -think 1ms"),
	"flag sccload -run-id":           user("scripts/e2e_recover.sh", `-verify-only -run-id "$RUN_ID"`),
	"flag sccload -verify-only":      user("scripts/e2e_recover.sh", `-verify-only -run-id "$RUN_ID"`),
	"flag sccload -expect-recovered": user("scripts/e2e_recover.sh", "-expect-recovered"),
	"flag sccload -acked-out":        user("scripts/e2e_chaos.sh", `-acked-out "$SCRATCH/acked.kill"`),
	"flag sccload -acked-in":         user("scripts/e2e_chaos.sh", `-acked-in "$SCRATCH/acked.kill"`),
	"flag sccload -trace-sample":     user("scripts/bench_sweep.sh", "-trace-sample 20"),
	"flag sccload -bench-out":        user("scripts/bench_sweep.sh", `-bench-out "$file"`),
	"flag sccload -matrix":           user("Makefile", "-matrix full"),
	"flag sccload -matrix-out":       user("Makefile", "-matrix-out $(SCENARIO_OUT)"),
	"flag sccload -events-merge":     user("scripts/e2e_chaos.sh", `sccload" -events-merge`),

	// Environment variables and HTTP paths.
	"env SCC_FAULT_FSYNC_ERR_AFTER": user("scripts/e2e_chaos.sh", "SCC_FAULT_FSYNC_ERR_AFTER=200"),
	"env SCC_FAULT_APPLY_DELAY_MS":  user("scripts/e2e_chaos.sh", "SCC_FAULT_APPLY_DELAY_MS=2"),
	"env SCCBENCH_COMMIT":           user("bench/run.sh", "export SCCBENCH_COMMIT"),
	"http /metrics":                 user("scripts/e2e_recover.sh", "http_get /metrics"),
	"http /debug/events":            user("scripts/e2e_recover.sh", "http_get /debug/events"),
}

// wireName is one name on the operator surface as its source defines
// it. owner is the path prefix of the code that defines or binds the
// name; a user there does not count, because it would name itself.
type wireName struct {
	key, src, owner string
}

// TestWireSurface is the exercised-by ratchet for the wire and the
// command lines: every verb, option token, vf= family, flag,
// environment variable and HTTP path must have an entry in wireSurface,
// and every entry must still hold. The planted cases check that the
// ratchet catches what it exists to catch, each with a message that
// names the fix.
func TestWireSurface(t *testing.T) {
	names := wireNames(t)
	for _, e := range wireSurfaceErrors(names, wireSurface, readFile) {
		t.Error(e)
	}

	table := maps.Clone(wireSurface)
	// A user that binds its own name, and a user that lost its token.
	table["verb PING"] = user("internal/server/client/client.go", `m.do("PING")`)
	table["flag sccload -mix"] = user("scripts/e2e_interactive.sh", "-mix nonesuch")
	planted := append(slices.Clip(names),
		wireName{key: "verb FROB", src: "internal/server/server.go", owner: "internal/server/"},
		wireName{key: "flag sccserve -frob", src: "cmd/sccserve/main.go", owner: "cmd/sccserve/"})
	errs := wireSurfaceErrors(planted, table, readFile)
	for key, want := range map[string]string{
		"verb FROB":           "verb FROB (internal/server/server.go): nothing on the operator surface is known to reach it; delete it, or name its user in wireSurface",
		"flag sccserve -frob": "flag sccserve -frob (cmd/sccserve/main.go): nothing on the operator surface is known to reach it; delete it, or name its user in wireSurface",
		"verb PING":           "verb PING: internal/server/client/client.go binds it, so it is not a user; name a driver outside internal/server/",
		"flag sccload -mix":   `flag sccload -mix: scripts/e2e_interactive.sh no longer contains "-mix nonesuch"; delete the name, or name its current user in wireSurface`,
	} {
		var got []string
		for _, e := range errs {
			if strings.HasPrefix(e, key+" ") || strings.HasPrefix(e, key+":") {
				got = append(got, e)
			}
		}
		if len(got) != 1 || got[0] != want {
			t.Errorf("planted %s: errors %q, want [%q]", key, got, want)
		}
	}
}

var namesTest = regexp.MustCompile(`\bTest[A-Z]\w*`)

// wireSurfaceErrors checks names against table and returns one message
// per violation, sorted; read returns a user file's contents.
func wireSurfaceErrors(names []wireName, table map[string]wireUse, read func(string) (string, error)) []string {
	var errs []string
	defined := map[string]bool{}
	for _, n := range names {
		defined[n.key] = true
		use, ok := table[n.key]
		switch {
		case !ok:
			errs = append(errs, n.key+" ("+n.src+"): nothing on the operator surface is known to reach it; "+
				"delete it, or name its user in wireSurface")
		case use.reason != "":
			if use.file != "" {
				errs = append(errs, n.key+": an entry names a user or a reason, not both")
			} else if !strings.Contains(use.reason, "deployment") && !namesTest.MatchString(use.reason) {
				errs = append(errs, n.key+": kept for "+strconv.Quote(use.reason)+
					", which names neither a deployment setting nor a test")
			}
		case strings.HasPrefix(use.file, n.owner):
			errs = append(errs, n.key+": "+use.file+" binds it, so it is not a user; name a driver outside "+n.owner)
		case strings.HasSuffix(use.file, "_test.go"):
			errs = append(errs, n.key+": "+use.file+" is test code; a test that needs the name is a reason, not a user")
		default:
			body, err := read(use.file)
			if err != nil {
				errs = append(errs, n.key+": user "+use.file+": "+err.Error())
			} else if !strings.Contains(body, use.token) {
				errs = append(errs, n.key+": "+use.file+" no longer contains "+strconv.Quote(use.token)+
					"; delete the name, or name its current user in wireSurface")
			}
		}
	}
	for key := range table {
		if !defined[key] {
			errs = append(errs, "wireSurface lists "+key+", which no source defines any more; drop the entry")
		}
	}
	sort.Strings(errs)
	return errs
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

// wireNames reads every name on the operator surface from its single
// source, parsing (not building) the files that define them.
func wireNames(t *testing.T) []wireName {
	t.Helper()
	var names []wireName
	add := func(key, src, owner string) { names = append(names, wireName{key, src, owner}) }

	const server = "internal/server/server.go"
	sf := parseGo(t, server)
	for fn, prefix := range map[string]string{"dispatchVerb": "", "read": "", "handleTXN": "TXN "} {
		for _, v := range stringLabels(funcDecl(t, sf, fn)) {
			add("verb "+prefix+v, server, "internal/server/")
		}
	}

	const opts = "internal/server/opts/opts.go"
	of := parseGo(t, opts)
	ast.Inspect(funcDecl(t, of, "ParseToken"), func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isCall(call, "strings", "HasPrefix") && len(call.Args) == 2 {
			if s, ok := stringLit(call.Args[1]); ok {
				add("token "+s, opts, "internal/server/")
			}
		}
		return true
	})
	consts := stringConsts(of)
	ast.Inspect(funcDecl(t, of, "ParseFamily"), func(n ast.Node) bool {
		if cc, ok := n.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				if id, ok := e.(*ast.Ident); ok && consts[id.Name] != "" {
					add("vf "+consts[id.Name], opts, "internal/server/")
				}
			}
		}
		return true
	})

	for _, cmd := range []string{"sccserve", "sccload"} {
		src := "cmd/" + cmd + "/main.go"
		ast.Inspect(parseGo(t, src), func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 3 && isCall(call, "flag", "") {
				if s, ok := stringLit(call.Args[0]); ok {
					add("flag "+cmd+" -"+s, src, "cmd/"+cmd+"/")
				}
			}
			return true
		})
	}

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		path = filepath.ToSlash(path)
		cmdFile := strings.HasPrefix(path, "cmd/")
		if !strings.Contains(string(body), "os.Getenv(") && !(cmdFile && strings.Contains(string(body), "http.Handle")) {
			return nil
		}
		ast.Inspect(parseGo(t, path), func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			s, ok := stringLit(call.Args[0])
			switch {
			case !ok:
			case isCall(call, "os", "Getenv"):
				add("env "+s, path, path)
			case cmdFile && (isCall(call, "http", "HandleFunc") || isCall(call, "http", "Handle")):
				add("http "+s, path, filepath.ToSlash(filepath.Dir(path))+"/")
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A name bound in two places (REPL in follower.read and in dispatchVerb's
	// REQ-framing refusal) is one name.
	sort.Slice(names, func(i, j int) bool { return names[i].key < names[j].key })
	return slices.CompactFunc(names, func(a, b wireName) bool { return a.key == b.key })
}

func parseGo(t *testing.T, path string) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func funcDecl(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == name {
			return fd
		}
	}
	t.Fatalf("no func %s in %s: the wire surface moved, so move wireNames with it", name, f.Name.Name)
	return nil
}

// stringLabels returns the string literals fn's switch statements
// branch on — case labels, and the operand of a `== "..."` test.
func stringLabels(fn *ast.FuncDecl) []string {
	var out []string
	ast.Inspect(fn, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CaseClause:
			for _, e := range n.List {
				if s, ok := stringLit(e); ok {
					out = append(out, s)
				}
			}
		case *ast.BinaryExpr:
			if s, ok := stringLit(n.Y); ok && n.Op == token.EQL {
				out = append(out, s)
			}
		}
		return true
	})
	return out
}

// stringConsts maps f's string constants to their values.
func stringConsts(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if i < len(vs.Values) {
					if s, ok := stringLit(vs.Values[i]); ok {
						out[name.Name] = s
					}
				}
			}
		}
	}
	return out
}

// isCall reports whether call is pkg.fn(...); fn "" matches any name.
func isCall(call *ast.CallExpr, pkg, fn string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg && (fn == "" || sel.Sel.Name == fn)
}

func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(lit.Value)
	return s, err == nil
}
