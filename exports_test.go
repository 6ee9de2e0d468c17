package repro

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// keptExports are exported internal/ names that no non-test code refers
// to but that stay anyway. Every entry names the tests that need it. An
// entry whose name has gained a user, or no longer exists, fails the
// test too, so the list only shrinks.
var keptExports = map[string]string{
	"repro/internal/engine.Store.PendingCommits": "observes commits queued behind a stalled flush: " +
		"TestGroupCommitCoalesces, TestGroupCommitMaxBatch, TestCommitBoundaryContract; checkQuiesced asserts none is left",
	"repro/internal/history.Recorder.Records": "the serializability oracle's history, read back to check the paper's " +
		"schedules: TestFig1bBroadcastRestart, TestFig2aUndevelopedConflict, TestEDFWakeOrder, TestRecordsAccessor",
	"repro/internal/core.OBShadowCount": "the paper's Sec. 2 SCC-OB shadow count, reproduced as a result: " +
		"TestOBShadowCountPaperExample (Fig. 3), TestOBFactorialGrowth",
	"repro/internal/core.CBLiveShadowBound":  "SCC-CB's Sec. 2 live-shadow bound: TestCBBoundsLinearAndQuadratic, TestOBvsCBProperty",
	"repro/internal/core.CBTotalShadowBound": "SCC-CB's Sec. 2 total-shadow bound: TestCBBoundsLinearAndQuadratic, TestOBvsCBProperty",
	"repro/internal/sim.Kernel.RunUntil": "steps the paper's figure schedules to exact instants: " +
		"TestFig4DonorFork through TestFig8CommitRuleCase2, TestRunUntil",
	"repro/internal/server/client.Mux.Update": "blocking one-transaction UPD round trip: TestInvalidKeysNeverReachTheWire checks it; " +
		"TestMetricsExposition, TestReplicaCrossShardAtomicVisibility and TestTxnSpeculationAcrossRoundTrips commit with it",
	"repro/internal/server/client.Mux.Add": "Go binding of the ADD verb: TestProtocol and TestMuxBasics check its reply; " +
		"TestReplicationConverges and TestPromoteTakesOver drive commits with it",
}

// TestExportsHaveUsers is the exercised-by ratchet: every exported
// identifier declared under internal/ — package-level names and methods
// — must be referred to by non-test code somewhere other than its own
// declaration. The root module's cmd/, examples/ and internal/ count as
// users, and so does the bench/ module. A method that satisfies an
// interface is exempt (the interface is its caller); so is anything in
// keptExports.
func TestExportsHaveUsers(t *testing.T) {
	fset := token.NewFileSet()
	var listed []listedPkg
	exports := map[string]string{}
	for _, dir := range []string{".", "bench"} {
		for _, p := range goList(t, dir) {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
			if !p.Standard {
				listed = append(listed, p)
			}
		}
	}
	imp := &srcImporter{
		checked: map[string]*types.Package{},
		gc: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			return os.Open(exports[path])
		}),
	}

	// go list -deps prints dependencies first, so each package's module
	// imports are type-checked from source before it is.
	var checked []*checkedPkg
	for _, p := range listed {
		if imp.checked[p.ImportPath] != nil || len(p.GoFiles) == 0 {
			continue
		}
		c := &checkedPkg{info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			c.files = append(c.files, f)
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, c.files, c.info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		c.pkg = pkg
		imp.checked[p.ImportPath] = pkg
		checked = append(checked, c)
	}

	// Declarations under audit, each with the source ranges that make up
	// its own declaration: a use inside one of them is not a user.
	own := map[types.Object][]posRange{}
	for _, c := range checked {
		if !strings.Contains(c.pkg.Path()+"/", "/internal/") {
			continue
		}
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if obj := c.info.Defs[d.Name]; obj.Exported() {
						own[obj] = append(own[obj], posRange{d.Pos(), d.End()})
					}
					if d.Recv != nil {
						// The receiver does not use the type.
						if tn := recvTypeName(c.pkg, d); tn != nil && tn.Exported() {
							own[tn] = append(own[tn], posRange{d.Recv.Pos(), d.Recv.End()})
						}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if obj := c.info.Defs[s.Name]; obj.Exported() {
								own[obj] = append(own[obj], posRange{s.Pos(), s.End()})
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if obj := c.info.Defs[n]; obj != nil && obj.Exported() {
									own[obj] = append(own[obj], posRange{s.Pos(), s.End()})
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, c := range checked {
		for id, obj := range c.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			if rs, ok := own[obj]; ok && !within(rs, id.Pos()) {
				used[obj] = true
			}
		}
	}

	ifaces := interfaces(checked, imp)
	var unused []string
	for obj := range own {
		key := exportKey(obj)
		if reason, kept := keptExports[key]; kept {
			if used[obj] {
				t.Errorf("%s is kept (%s) but now has a user: drop it from keptExports", key, reason)
			}
			continue
		}
		if used[obj] || satisfiesInterface(obj, ifaces) {
			continue
		}
		unused = append(unused, key+" ("+relPos(fset, obj.Pos())+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s: exported, but no non-test code outside its own declaration refers to it; delete it, unexport it, or add it to keptExports with the test that needs it", u)
	}
	for key := range keptExports {
		found := false
		for obj := range own {
			if exportKey(obj) == key {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("keptExports names %s, which is not an exported internal/ declaration", key)
		}
	}
}

type listedPkg struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
	Standard                bool
}

type checkedPkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

type posRange struct{ from, to token.Pos }

func within(rs []posRange, p token.Pos) bool {
	for _, r := range rs {
		if r.from <= p && p < r.to {
			return true
		}
	}
	return false
}

// goList lists the packages matching ./... in the module at dir and
// every dependency, dependencies first, with compiler export data.
func goList(t *testing.T, dir string) []listedPkg {
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if p, err := exec.LookPath("go"); err == nil {
		goBin = p
	}
	cmd := exec.Command(goBin, "list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPkg
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// srcImporter hands out the packages this test type-checked from source
// and falls back to export data for the standard library, so every
// module object has one identity across all packages.
type srcImporter struct {
	checked map[string]*types.Package
	gc      types.Importer
}

func (i *srcImporter) Import(path string) (*types.Package, error) {
	if p := i.checked[path]; p != nil {
		return p, nil
	}
	return i.gc.Import(path)
}

func recvTypeName(pkg *types.Package, d *ast.FuncDecl) *types.TypeName {
	x := d.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.ParenExpr:
			x = e.X
		case *ast.Ident:
			tn, _ := pkg.Scope().Lookup(e.Name).(*types.TypeName)
			return tn
		default:
			return nil
		}
	}
}

// interfaces collects every interface type with methods that the
// checked code mentions or could satisfy: named ones declared in any
// checked or imported package, the anonymous ones appearing in
// expressions, error, and the interface{ Unwrap() error } through which
// errors.Is and errors.As call Unwrap.
func interfaces(checked []*checkedPkg, imp *srcImporter) []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	add(types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, c := range checked {
		walk(c.pkg)
		for _, tv := range c.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return out
}

func satisfiesInterface(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(recv.Type())
	if named == nil || types.IsInterface(named) {
		return false
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
	}
	return false
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// exportKey spells a declaration the way keptExports lists it:
// import path, then Type.Method or Name.
func exportKey(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if n := namedOf(recv.Type()); n != nil {
				name = n.Obj().Name() + "." + name
			}
		}
	}
	return obj.Pkg().Path() + "." + name
}

func relPos(fset *token.FileSet, p token.Pos) string {
	pos := fset.Position(p)
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
	}
	return pos.String()
}
