package mixedmem_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIRunPatternsNameTests reads the CI workflow and checks every -run
// pattern against the tests of the packages its step runs: each |-separated
// name must match at least one Test function there, exactly when anchored
// (^Name$) and as a prefix or substring when not. A test that is renamed,
// moved or deleted thus cannot silently drop out of a race or count job.
func TestCIRunPatternsNameTests(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	goTest := regexp.MustCompile(`go test ([^\n]*)`)
	runFlag := regexp.MustCompile(`-run[ =]'([^']*)'`)
	patterns := 0
	for _, cmd := range goTest.FindAllStringSubmatch(string(data), -1) {
		run := runFlag.FindStringSubmatch(cmd[1])
		if run == nil || run[1] == "^$" { // no filter, or a fuzz step's "run nothing"
			continue
		}
		var dirs []string
		for _, f := range strings.Fields(cmd[1]) {
			if f == "." || strings.HasPrefix(f, "./") {
				dirs = append(dirs, f)
			}
		}
		tests := testFuncs(t, dirs)
		if len(tests) == 0 {
			t.Errorf("go test %s: no tests in %v", cmd[1], dirs)
			continue
		}
		for _, name := range strings.Split(run[1], "|") {
			re, err := regexp.Compile(name)
			if err != nil {
				t.Errorf("go test %s: %v", cmd[1], err)
				continue
			}
			if !slices.ContainsFunc(tests, re.MatchString) {
				t.Errorf("-run name %q matches no test in %v", name, dirs)
			}
		}
		patterns++
	}
	if patterns == 0 {
		t.Fatal("no -run pattern found in the CI workflow")
	}
}

// testFuncs returns the names of the Test functions in the packages in dirs.
func testFuncs(t *testing.T, dirs []string) []string {
	t.Helper()
	var names []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
					names = append(names, fn.Name.Name)
				}
			}
		}
	}
	return names
}
