package mixedmem_test

// TestNoDeadCode is the repo's "is this still used?" check. It type-checks
// the whole module once, tests included, and fails on two kinds of leftovers:
//
//   - dead objects: a package-level object (or method) under internal/, cmd/
//     or examples/ that only its own package's tests, or other dead objects,
//     refer to;
//   - dead knobs: a field of a …Config struct that no live non-test code sets,
//     directly or by copying another knob that is set.
//
// Roots are main and init functions, every package outside those three trees
// (bench/e2e and the root package count as users and are never reported), the
// tests of every package for the objects of every other package, and the
// entries of testdata/deadcode.allow. A method that satisfies an interface is
// live exactly when its receiver type is, and so is one that satisfies a
// type-parameter constraint. A blank declaration ("var _ I =
// (*T)(nil)") is neither a root nor reported.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"mixedmem/internal/analysis/framework"
)

func TestNoDeadCode(t *testing.T) {
	allow, err := readDeadCodeAllow("testdata/deadcode.allow")
	if err != nil {
		t.Fatal(err)
	}
	if len(allow) > 3 {
		t.Errorf("testdata/deadcode.allow has %d roots; keep it to three", len(allow))
	}
	rep, err := findDeadCode(".", allow)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.objects {
		t.Errorf("dead object: %s", s)
	}
	for _, s := range rep.knobs {
		t.Errorf("dead knob: %s", s)
	}
	for _, a := range rep.unusedAllow {
		t.Errorf("testdata/deadcode.allow: %q matches nothing", a)
	}
}

// TestDeadCodeFixture runs the checker over testdata/deadcode, a module with
// one red and one green case per rule.
func TestDeadCodeFixture(t *testing.T) {
	allow, err := readDeadCodeAllow("testdata/deadcode/deadcode.allow")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := findDeadCode("testdata/deadcode", allow)
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got, want []string) {
		t.Helper()
		names := make([]string, len(got))
		for i, s := range got {
			names[i], _, _ = strings.Cut(s, " ")
		}
		if !slices.Equal(names, want) {
			t.Errorf("%s:\n got %q\nwant %q", kind, names, want)
		}
	}
	check("dead objects", rep.objects, []string{
		"internal/lib.Dead",           // a type only its own test builds
		"internal/lib.Dead.Len",       // interface method of a dead type
		"internal/lib.chainCallee",    // the callee of a dead chain
		"internal/lib.chainCaller",    // the head of a dead chain
		"internal/lib.testOnlyHelper", // used only by its package's test
	})
	check("dead knobs", rep.knobs, []string{
		"internal/lib.Config.TestOnly",          // set only in a test
		"internal/lib.InnerConfig.FromTestOnly", // a copy of a dead knob
	})
	if len(rep.unusedAllow) != 0 {
		t.Errorf("unused allowlist entries: %q", rep.unusedAllow)
	}
}

type deadCodeReport struct {
	objects     []string // "internal/pkg.Name (file:line)", sorted
	knobs       []string // "internal/pkg.Config.Field (file:line)", sorted
	unusedAllow []string // allowlist entries that matched no object
}

// readDeadCodeAllow reads an allowlist: blank lines and '#' comments aside,
// one root per line, "key reason…". A key is a module-relative object
// ("internal/check.Theorem1", "internal/pkg.Type.Method") or package tree
// ("internal/analysis/crossval/..."). A root without a reason is an error.
func readDeadCodeAllow(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var keys []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, key)
		}
		keys = append(keys, key)
	}
	return keys, sc.Err()
}

// dcNode is one reportable object.
type dcNode struct {
	key  string
	pos  token.Pos
	out  []*dcNode // objects this one's declaration uses
	live bool
}

// dcKnob is one field of a …Config struct.
type dcKnob struct {
	key  string
	pos  token.Pos
	into []*dcKnob // knobs some live code copies this one into
	set  bool
}

type deadCodeScan struct {
	module  string
	fset    *token.FileSet
	nodes   map[types.Object]*dcNode
	knobs   map[*types.Var]*dcKnob
	queue   []*dcNode                     // live nodes whose uses are not yet marked
	ifaces  map[string][]*types.Interface // every interface, by method name
	loose   map[*types.Interface]bool     // the constraints among them
	visited map[*types.Package]bool       // packages whose interfaces are indexed
}

func findDeadCode(root string, allow []string) (deadCodeReport, error) {
	var rep deadCodeReport
	pkgs, err := framework.Load(root, []string{"./..."})
	if err != nil {
		return rep, err
	}
	prog := pkgs[0].Prog
	s := &deadCodeScan{
		fset:    prog.Fset(),
		nodes:   make(map[types.Object]*dcNode),
		knobs:   make(map[*types.Var]*dcKnob),
		ifaces:  make(map[string][]*types.Interface),
		loose:   make(map[*types.Interface]bool),
		visited: make(map[*types.Package]bool),
	}
	// The first package's path, less its directory below root, is the
	// module path.
	root, err = filepath.Abs(root)
	if err != nil {
		return rep, err
	}
	rel, err := filepath.Rel(root, pkgs[0].Dir)
	if err != nil {
		return rep, err
	}
	s.module = strings.TrimSuffix(strings.TrimSuffix(pkgs[0].Path, filepath.ToSlash(rel)), "/")

	for _, p := range pkgs {
		if s.reported(p.Path) {
			s.declare(p)
		}
	}
	rep.unusedAllow = s.allow(allow)
	s.addIface(types.Universe.Lookup("error").Type())
	for _, p := range prog.Packages() {
		s.collectIfaces(p.Types)
		for _, tv := range p.Info.Types {
			s.addIface(tv.Type)
		}
		s.forDecls(p, func(owners []*dcNode, decl ast.Decl) {
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					s.use(owners, p.Info.Uses[id])
				}
				return true
			})
		})
	}
	if err := s.scanTests(prog, pkgs); err != nil {
		return rep, err
	}
	s.interfaceEdges()
	for len(s.queue) > 0 {
		n := s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		for _, m := range n.out {
			s.mark(m)
		}
	}
	for _, n := range s.nodes {
		if !n.live {
			rep.objects = append(rep.objects, n.key+" ("+s.where(n.pos)+")")
		}
	}
	sort.Strings(rep.objects)

	// Knobs go after liveness: a set inside dead code sets nothing.
	s.setKnobs(prog)
	for _, k := range s.knobs {
		if !k.set {
			rep.knobs = append(rep.knobs, k.key+" ("+s.where(k.pos)+")")
		}
	}
	sort.Strings(rep.knobs)
	return rep, nil
}

// rel is a package path relative to the module ("internal/vclock").
func (s *deadCodeScan) rel(path string) string {
	return strings.TrimPrefix(strings.TrimPrefix(path, s.module), "/")
}

// reported reports whether objects of the package are subject to the check.
func (s *deadCodeScan) reported(path string) bool {
	rel := s.rel(path)
	for _, tree := range []string{"internal/", "cmd/", "examples/"} {
		if strings.HasPrefix(rel, tree) {
			return true
		}
	}
	return false
}

func (s *deadCodeScan) where(pos token.Pos) string {
	p := s.fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}

// declare gives every package-level object of p and every method of its
// named types a node, and every field of its …Config structs a knob.
func (s *deadCodeScan) declare(p *framework.Package) {
	prefix := s.rel(p.Path) + "."
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		n := &dcNode{key: prefix + name, pos: obj.Pos()}
		s.nodes[obj] = n
		if name == "main" && p.Types.Name() == "main" {
			s.mark(n)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			s.nodes[m] = &dcNode{key: prefix + name + "." + m.Name(), pos: m.Pos()}
		}
		if st, ok := named.Underlying().(*types.Struct); ok && strings.HasSuffix(name, "Config") {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				s.knobs[f] = &dcKnob{key: prefix + name + "." + f.Name(), pos: f.Pos()}
			}
		}
	}
}

// allow marks the allowlist's roots live and returns the entries that match
// no object.
func (s *deadCodeScan) allow(allow []string) (unused []string) {
	for _, a := range allow {
		tree, isTree := strings.CutSuffix(a, "...")
		matched := false
		for obj, n := range s.nodes {
			if n.key == a || isTree && strings.HasPrefix(s.rel(obj.Pkg().Path())+"/", tree) {
				s.mark(n)
				matched = true
			}
		}
		if !matched {
			unused = append(unused, a)
		}
	}
	return unused
}

func (s *deadCodeScan) mark(n *dcNode) {
	if n != nil && !n.live {
		n.live = true
		s.queue = append(s.queue, n)
	}
}

// forDecls calls fn for every top-level declaration of p whose uses count,
// with the nodes they belong to: nil for a root (any declaration outside the
// checked trees, an init function). Imports and blank declarations are
// skipped.
func (s *deadCodeScan) forDecls(p *framework.Package, fn func(owners []*dcNode, decl ast.Decl)) {
	reported := s.reported(p.Path)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			var owners []*dcNode
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if n := s.nodes[p.Info.Defs[d.Name]]; n != nil {
					owners = append(owners, n)
				} else if d.Name.Name == "init" {
					fn(nil, decl)
					continue
				}
			case *ast.GenDecl:
				if d.Tok == token.IMPORT {
					continue
				}
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						owners = append(owners, s.nodes[p.Info.Defs[sp.Name]])
					case *ast.ValueSpec:
						for _, id := range sp.Names {
							if n := s.nodes[p.Info.Defs[id]]; n != nil {
								owners = append(owners, n)
							}
						}
					}
				}
			}
			if !reported {
				fn(nil, decl)
			} else if len(owners) > 0 {
				fn(owners, decl)
			}
		}
	}
}

// use records a use of obj by the declaration of owners, or by a root when
// owners is nil.
func (s *deadCodeScan) use(owners []*dcNode, obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	n := s.nodes[obj]
	if n == nil {
		return
	}
	if owners == nil {
		s.mark(n)
	}
	for _, o := range owners {
		if o != n {
			o.out = append(o.out, n)
		}
	}
}

// collectIfaces indexes every named interface of pkg and, transitively, of
// everything it imports (the standard library's fmt.Stringer, sort.Interface
// and so on).
func (s *deadCodeScan) collectIfaces(pkg *types.Package) {
	if s.visited[pkg] {
		return
	}
	s.visited[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			s.addIface(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		s.collectIfaces(imp)
	}
}

// addIface indexes t's methods if t is an interface. A constraint — an
// interface with a type term, or a generic one — is indexed as loose: which
// type arguments satisfy it is not worth working out, so a method with one of
// its names is taken to satisfy it.
func (s *deadCodeScan) addIface(t types.Type) {
	if t == nil {
		return
	}
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	if n, ok := t.(*types.Named); !it.IsMethodSet() || ok && n.TypeParams().Len() > 0 {
		s.loose[it] = true
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		if !slices.Contains(s.ifaces[name], it) {
			s.ifaces[name] = append(s.ifaces[name], it)
		}
	}
}

// interfaceEdges makes a method that satisfies an interface live whenever its
// receiver type is. A generic receiver is taken to satisfy any interface that
// names the method, and any receiver a constraint that names it (addIface):
// which instance flows into it is not worth working out.
func (s *deadCodeScan) interfaceEdges() {
	for obj, n := range s.nodes {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Type().(*types.Signature).Recv() == nil {
			continue
		}
		recv := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		named := recv.(*types.Named)
		rn := s.nodes[named.Obj()]
		for _, it := range s.ifaces[fn.Name()] {
			if named.TypeParams().Len() > 0 || s.loose[it] || types.Implements(types.NewPointer(named), it) {
				rn.out = append(rn.out, n)
				if rn.live {
					s.mark(n)
				}
				break
			}
		}
	}
}

// setKnobs marks set every knob that live non-test code sets, and every knob
// that such code copies a set knob into.
func (s *deadCodeScan) setKnobs(prog *framework.Program) {
	var set []*dcKnob
	for _, p := range prog.Packages() {
		s.forDecls(p, func(owners []*dcNode, decl ast.Decl) {
			if owners != nil && !slices.ContainsFunc(owners, func(n *dcNode) bool { return n.live }) {
				return
			}
			s.knobSets(p.Info, decl, func(k *dcKnob, value ast.Expr) {
				if from := s.knobOf(p.Info, value); from != nil {
					from.into = append(from.into, k)
				} else {
					set = append(set, k)
				}
			})
		})
	}
	for len(set) > 0 {
		k := set[len(set)-1]
		set = set[:len(set)-1]
		if !k.set {
			k.set = true
			set = append(set, k.into...)
		}
	}
}

// knobOf returns the knob e selects, or nil.
func (s *deadCodeScan) knobOf(info *types.Info, e ast.Expr) *dcKnob {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok {
			return s.knobs[v.Origin()]
		}
	}
	return nil
}

// knobSets calls set for every knob decl sets, with the value assigned (nil
// when it is not one expression: an increment, an address taken, a tuple).
func (s *deadCodeScan) knobSets(info *types.Info, decl ast.Decl, set func(k *dcKnob, value ast.Expr)) {
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok && s.knobs[v.Origin()] != nil {
						set(s.knobs[v.Origin()], kv.Value)
					}
				} else if k := s.knobs[st.Field(i).Origin()]; k != nil {
					set(k, elt)
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var value ast.Expr
				if len(n.Lhs) == len(n.Rhs) && n.Tok == token.ASSIGN {
					value = n.Rhs[i]
				}
				// c.A.B = v sets B, and sets A as well as anything would.
				for sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok; sel, ok = ast.Unparen(sel.X).(*ast.SelectorExpr) {
					if k := s.knobOf(info, sel); k != nil {
						set(k, value)
						value = nil
					}
				}
			}
		case *ast.IncDecStmt:
			if k := s.knobOf(info, n.X); k != nil {
				set(k, nil)
			}
		case *ast.UnaryExpr:
			if k := s.knobOf(info, n.X); n.Op == token.AND && k != nil {
				set(k, nil)
			}
		}
		return true
	})
}

// scanTests type-checks every package's test files against the loaded
// program, a package per goroutine, and marks live what they use of other
// packages.
func (s *deadCodeScan) scanTests(prog *framework.Program, pkgs []*framework.Package) error {
	used := make([][]types.Object, len(pkgs))
	errs := make([]error, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, p := range pkgs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			used[i], errs[i] = testUses(prog, p)
		}()
	}
	wg.Wait()
	for i := range pkgs {
		if errs[i] != nil {
			return errs[i]
		}
		for _, obj := range used[i] {
			s.use(nil, obj)
		}
	}
	return nil
}

// testUses returns the objects p's test files use. In-package test files are
// checked together with a copy of p, and an external test package imports
// that copy, so both see export_test.go; a use of p's own objects lands on
// the copy and keeps nothing alive. Type errors (a copy's type handed to a
// package that expects the original) are ignored: they cost a use at most.
func testUses(prog *framework.Program, p *framework.Package) ([]types.Object, error) {
	ents, err := os.ReadDir(p.Dir)
	if err != nil {
		return nil, err
	}
	var in, ext []*ast.File
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(p.Fset, filepath.Join(p.Dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		if f.Name.Name == p.Types.Name() {
			in = append(in, f)
		} else {
			ext = append(ext, f)
		}
	}
	var used []types.Object
	check := func(path string, imp types.Importer, files, tests []*ast.File) *types.Package {
		info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
		conf := types.Config{Importer: imp, Error: func(error) {}}
		pkg, _ := conf.Check(path, p.Fset, files, info)
		for _, f := range tests {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil {
					used = append(used, info.Uses[id])
				}
				return true
			})
		}
		return pkg
	}
	self := p.Types
	if len(in) > 0 {
		self = check(p.Path, prog.Importer(), append(slices.Clip(p.Files), in...), in)
	}
	if len(ext) > 0 {
		check(p.Path+"_test", importerFunc(func(path string) (*types.Package, error) {
			if path == p.Path {
				return self, nil
			}
			return prog.Importer().Import(path)
		}), ext, ext)
	}
	return used, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
