package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSupport lists the non-test functions that only tests reach, and
// that tests in another package call, so they cannot move into their own
// package's _test.go files. Each key is a function as TestNoDeadCode
// names it; each value says which tests use it. Everything such a
// function reaches is excused with it.
var testSupport = map[string]string{
	"asm.DataSymbols":               "proc's TestArithmeticAndGlobals, wlgen's TestChainEntryAndColdPath and unwind's nestedProgram find a test program's globals by name",
	"build.(FuncBuilder).Mul":       "proc_test.go's TestRecursionAndStack emits MUL through the DSL",
	"build.(FuncBuilder).Div":       "proc_test.go's TestFaults and trace_test.go's TestSuperblockSelfModifyingStore emit DIV through the DSL",
	"core.(Controller).Whereis":     "diffcheck's TestOSRMovesParkedMainOffC0 asks which code version main runs",
	"isa.EncodeAll":                 "proc_test.go's TestUnmapInvalidatesDecodedCode and TestUnmapStraddlingPageBoundary write raw instructions over live code",
	"proc.(Process).Paused":         "ptrace's TestAttachStopsTarget and diffcheck's TestCycleExactEngineEquivalence wait on the pause flag",
	"proc.(Process).DecodedTraces":  "diffcheck's TestCycleExactEngineEquivalence compares decode counts across engines",
	"progtest.Generate":             "the seeded program generator of bolt's TestOptimizeSemanticsProperty, asm's TestAssembleInvariantsProperty and layout, core, pgo, bam and diffcheck tests",
	"replay.LoadFile":               "diffcheck's TestReplayShippedJournal and fleet's quarantine_test.go re-execute a shipped journal",
	"replay.(Session).DumpArtifact": "diffcheck's fault sweeps and fleet's quarantine tests dump a failing run's journal, which scripts/ci.sh uploads",
	"trace.(Journal).ByType":        "core's TestOptimizeRoundEmitsStageSpans, fleet's TestRetryAndBackoffEvents and diffcheck's fault sweep filter journals by event type",
	"workloads/wl.(Workload).Load":  "sqldb's TestBuildAndServe and about thirty other test files in bolt, core, fleet, diffcheck and the guests load a guest into a process",
	"bench.metricByName":            "bench's spec_test.go looks metrics up by name; bench/ is the benchmark's code and changes only with the benchmark",
}

// TestNoDeadCode fails on any non-test function of the module that no
// program reaches. The roots are every main and init, the package-level
// var initializers, and each method that satisfies an interface declared
// in the module or in a standard package it imports (String, Error,
// ServeHTTP, ...). A function is live when a root or a live function
// uses it. A function that is not live is test-only when a _test.go file
// names it, or a test-only function uses it; otherwise it is dead. A
// test-only function is excused only through testSupport.
func TestNoDeadCode(t *testing.T) {
	m := loadModule(t)
	live := m.reach(m.roots)
	testNamed, support := m.reach(m.testNamed()), m.reach(m.supportRoots(t, live))

	var bad []string
	for _, fn := range m.funcs {
		if live[fn] || support[fn] {
			continue
		}
		class := "dead"
		if testNamed[fn] {
			class = "test-only"
		}
		bad = append(bad, fmt.Sprintf("%s %s: %s", m.pos(fn), funcName(fn), class))
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
	if len(bad) > 0 {
		t.Log("delete a dead function; move a test-only one into its package's _test.go, " +
			"or list it in testSupport if tests in another package use it (docs/testing.md)")
	}
}

// module is the type-checked non-test code of every package in the
// module, with the uses between its functions.
type module struct {
	fset       *token.FileSet
	funcs      []*types.Func                 // every declared function and method
	uses       map[*types.Func][]*types.Func // the functions each body names
	roots      []*types.Func
	testIdents map[string]bool // every identifier a _test.go file uses
	root       string          // the module's directory
}

type listedPackage struct {
	ImportPath   string
	Dir          string
	Name         string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Main bool }
}

func loadModule(t *testing.T) *module {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	m := &module{
		fset:       token.NewFileSet(),
		uses:       map[*types.Func][]*types.Func{},
		testIdents: map[string]bool{},
	}
	if m.root, err = filepath.Abs("."); err != nil {
		t.Fatal(err)
	}
	std := importer.ForCompiler(m.fset, "gc", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []*types.Package
	var infos []*types.Info
	// go list -deps lists each package after those it imports, so every
	// module import is checked before its importer.
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if lp.Module == nil || !lp.Module.Main {
			continue // the standard library: the gc importer reads it
		}
		for _, f := range append(lp.TestGoFiles, lp.XTestGoFiles...) {
			m.scanTestFile(t, filepath.Join(lp.Dir, f))
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, f := range lp.GoFiles {
			af, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, af)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
		pkg, err := (&types.Config{Importer: imp}).Check(lp.ImportPath, m.fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
		}
		checked[lp.ImportPath] = pkg
		pkgs, infos = append(pkgs, pkg), append(infos, info)
		for _, f := range files {
			m.addFile(f, info, lp.Name == "main")
		}
	}
	m.addInterfaceRoots(pkgs, infos)
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// addFile records the file's functions and what each body uses, and
// roots main, init and the package-level var initializers.
func (m *module) addFile(f *ast.File, info *types.Info, isMain bool) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			fn := info.Defs[d.Name].(*types.Func)
			m.funcs = append(m.funcs, fn)
			if d.Recv == nil && (d.Name.Name == "init" || isMain && d.Name.Name == "main") {
				m.roots = append(m.roots, fn)
			}
			if d.Body != nil {
				m.uses[fn] = usedFuncs(d.Body, info)
			}
		case *ast.GenDecl:
			if d.Tok == token.VAR {
				m.roots = append(m.roots, usedFuncs(d, info)...)
			}
		}
	}
}

func usedFuncs(n ast.Node, info *types.Info) []*types.Func {
	var used []*types.Func
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				used = append(used, fn.Origin())
			}
		}
		return true
	})
	return used
}

// addInterfaceRoots roots every method through which a module type
// satisfies an interface: one declared at package level in the module or
// in any standard package it imports, the predeclared error, or one
// written inline in the module's code. Such a method may be called
// through the interface, where no static use names it.
func (m *module) addInterfaceRoots(pkgs []*types.Package, infos []*types.Info) {
	byMethod := map[string][]*types.Interface{}
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seenIface[it] || !it.IsMethodSet() {
			return
		}
		seenIface[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byMethod[it.Method(i).Name()] = append(byMethod[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	seenPkg := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range pkgs {
		walk(p)
	}
	for _, info := range infos {
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}

	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				meth := ms.At(i).Obj().(*types.Func)
				for _, it := range byMethod[meth.Name()] {
					if types.Implements(ptr, it) {
						m.roots = append(m.roots, meth.Origin())
						break
					}
				}
			}
		}
	}
}

// scanTestFile records every identifier the test file uses.
func (m *module) scanTestFile(t *testing.T, path string) {
	f, err := parser.ParseFile(m.fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			m.testIdents[id.Name] = true
		}
		return true
	})
}

// testNamed is every function whose name a _test.go file uses.
func (m *module) testNamed() []*types.Func {
	var named []*types.Func
	for _, fn := range m.funcs {
		if m.testIdents[fn.Name()] {
			named = append(named, fn)
		}
	}
	return named
}

// supportRoots resolves testSupport to functions, failing on an entry
// that is stale: one that no longer exists, that a program reaches, or
// that no test names.
func (m *module) supportRoots(t *testing.T, live map[*types.Func]bool) []*types.Func {
	byName := map[string]*types.Func{}
	for _, fn := range m.funcs {
		byName[funcName(fn)] = fn
	}
	var roots []*types.Func
	for name := range testSupport {
		fn, ok := byName[name]
		switch {
		case !ok:
			t.Errorf("testSupport lists %s, which does not exist: delete the entry", name)
		case live[fn]:
			t.Errorf("testSupport lists %s, which a program reaches: delete the entry", name)
		case !m.testIdents[fn.Name()]:
			t.Errorf("testSupport lists %s, which no test names: delete it and the entry", name)
		default:
			roots = append(roots, fn)
		}
	}
	return roots
}

// reach is the set of functions the roots use, transitively.
func (m *module) reach(roots []*types.Func) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	stack := append([]*types.Func(nil), roots...)
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[fn] {
			continue
		}
		seen[fn] = true
		stack = append(stack, m.uses[fn]...)
	}
	return seen
}

// funcName is pkg.Func or pkg.(Recv).Method, pkg being the import path
// without its "repro/internal/" or "repro/" prefix.
func funcName(fn *types.Func) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), "repro/"), "internal/")
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return pkg + "." + fn.Name()
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	return fmt.Sprintf("%s.(%s).%s", pkg, rt.(*types.Named).Obj().Name(), fn.Name())
}

func (m *module) pos(fn *types.Func) string {
	p := m.fset.Position(fn.Pos())
	rel, err := filepath.Rel(m.root, p.Filename)
	if err != nil {
		rel = p.Filename
	}
	return fmt.Sprintf("%s:%d", rel, p.Line)
}
