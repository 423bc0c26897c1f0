package framework

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path ("mixedmem/internal/apps"), or a
	// synthetic path for directories outside the module tree (fixtures).
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Prog is the program this package was loaded into: every package the
	// same loader type-checked from source, dependencies included.
	Prog *Program
}

// Program is the set of packages one Load (or LoadDir) type-checked from
// source together — the patterns' packages plus every module dependency
// pulled in by imports. All of them share one FileSet (the process-wide one,
// see sharedFset), so positions resolve across package boundaries, and
// interprocedural passes can see callee bodies in any of them.
type Program struct {
	fset *token.FileSet
	pkgs map[string]*Package
	imp  types.Importer

	mu    sync.Mutex
	facts map[string]any
}

// Fset is the FileSet shared by every package of the program.
func (p *Program) Fset() *token.FileSet { return p.fset }

// Packages returns every package of the program, sorted by path.
func (p *Program) Packages() []*Package {
	out := make([]*Package, 0, len(p.pkgs))
	for _, pkg := range p.pkgs {
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Importer resolves imports to the program's own packages (loading module
// packages it does not have yet) and the standard library through the shared
// source importer, so code checked against it, a package's tests for one,
// sees the very objects the program's packages declare.
func (p *Program) Importer() types.Importer { return p.imp }

// Fact memoizes a program-wide computation under key: the first call runs
// build and caches its result; later calls (from any analyzer on any
// package of the program) return the cached value. This is how expensive
// shared structures — the call graph, the effect summaries — are computed
// once per program rather than once per (analyzer, package) pair.
func (p *Program) Fact(key string, build func() any) any {
	p.mu.Lock()
	if v, ok := p.facts[key]; ok {
		p.mu.Unlock()
		return v
	}
	p.mu.Unlock()
	// Build outside the lock: fact builders compose (the summary set asks
	// for the call-graph fact), so holding the mutex here would deadlock.
	// Two goroutines may race to build the same fact; the first store wins
	// and the values are equivalent, so the waste is bounded and harmless.
	v := build()
	p.mu.Lock()
	defer p.mu.Unlock()
	if prev, ok := p.facts[key]; ok {
		return prev
	}
	p.facts[key] = v
	return v
}

// Load parses and type-checks the packages matched by patterns, rooted at
// dir (any directory inside the module). Patterns follow the go tool's
// shapes: "./x" for one directory, "./x/..." for a directory tree, or a
// module-relative import path ("mixedmem/internal/apps"). Directories named
// testdata, or starting with "." or "_", are skipped by tree expansion, as
// the go tool does. Test files (_test.go) are not loaded.
//
// Imports within the module are type-checked from source through the same
// loader; standard-library imports go through go/importer's source importer,
// so loading works without compiled export data or network access.
func Load(dir string, patterns []string) ([]*Package, error) {
	// importPath maps only an absolute directory to its module path, and
	// every pattern's directory is joined to dir.
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, module, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	ld := newLoader(root, module)
	var dirs []string
	seen := make(map[string]bool)
	addDir := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		rel := pat
		if strings.HasPrefix(pat, module+"/") {
			rel = "./" + strings.TrimPrefix(pat, module+"/")
		} else if pat == module {
			rel = "."
		}
		recursive := false
		if strings.HasSuffix(rel, "/...") {
			recursive = true
			rel = strings.TrimSuffix(rel, "/...")
		}
		base := rel
		if !filepath.IsAbs(base) {
			base = filepath.Join(dir, rel)
		}
		if st, err := os.Stat(base); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("analysis: pattern %q: no directory %s", pat, base)
		}
		if !recursive {
			addDir(base)
			continue
		}
		err := filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != base && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				addDir(p)
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("analysis: pattern %q: %w", pat, err)
		}
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := ld.loadDir(d)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadDir loads a single directory as a package, without pattern expansion —
// the analysistest entry point for fixture directories, which live under
// testdata and are not part of the module tree proper. rootHint is any
// directory inside the module whose packages the fixture may import.
func LoadDir(rootHint, pkgdir string) (*Package, error) {
	root, module, err := moduleRoot(rootHint)
	if err != nil {
		return nil, err
	}
	return newLoader(root, module).loadDir(pkgdir)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") &&
			!strings.HasSuffix(name, "_test.go") && !strings.HasPrefix(name, ".") {
			return true
		}
	}
	return false
}

// moduleRoot walks up from dir to the enclosing go.mod and returns the root
// directory and module path.
func moduleRoot(dir string) (root, module string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		d = parent
	}
}

// loader type-checks module packages from source, memoizing by import path,
// and delegates everything else to the standard library's source importer.
type loader struct {
	root   string
	module string
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*Package
	loads  map[string]bool
	prog   *Program
}

// sharedFset and sharedStd are process-wide: every loader parses into the one
// FileSet and resolves standard-library imports through the one source
// importer, so fmt, sync, net and their dependencies are type-checked from
// source once per process instead of once per Load (which was nearly all of
// the analyzer tests' wall time). Only the standard library is shared. Module
// packages, the Program and its Fact cache stay per loader, so one Load never
// sees another's packages or facts.
var (
	sharedFset = token.NewFileSet()
	sharedStd  = &lockedImporter{imp: importer.ForCompiler(sharedFset, "source", nil)}
)

// lockedImporter serializes a types.Importer that is not safe for concurrent
// use (the source importer memoizes in an unguarded map).
type lockedImporter struct {
	mu  sync.Mutex
	imp types.Importer
}

func (l *lockedImporter) Import(path string) (*types.Package, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.imp.Import(path)
}

func newLoader(root, module string) *loader {
	pkgs := make(map[string]*Package)
	ld := &loader{
		root:   root,
		module: module,
		fset:   sharedFset,
		std:    sharedStd,
		pkgs:   pkgs,
		loads:  make(map[string]bool),
		prog:   &Program{fset: sharedFset, pkgs: pkgs, facts: make(map[string]any)},
	}
	ld.prog.imp = ld
	return ld
}

// Import implements types.Importer for the type-checker's dependency loads.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == ld.module || strings.HasPrefix(path, ld.module+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, ld.module), "/")
		pkg, err := ld.loadDir(filepath.Join(ld.root, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ld.std.Import(path)
}

func (ld *loader) loadDir(dir string) (*Package, error) {
	dir = filepath.Clean(dir)
	path := ld.importPath(dir)
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	if ld.loads[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	ld.loads[path] = true
	defer delete(ld.loads, path)

	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  ld.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		Prog:  ld.prog,
	}
	ld.pkgs[path] = pkg
	return pkg, nil
}

// importPath maps a directory to its module import path, or to a synthetic
// path (its base name) for directories outside the module tree such as
// analysistest fixtures under testdata.
func (ld *loader) importPath(dir string) string {
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.Base(dir)
	}
	if rel == "." {
		return ld.module
	}
	if strings.Contains(rel, "testdata") {
		return filepath.Base(dir)
	}
	return ld.module + "/" + filepath.ToSlash(rel)
}
