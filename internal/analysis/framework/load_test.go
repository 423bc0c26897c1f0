package framework

import "testing"

// TestLoadRelativeDir: Load with a relative dir names packages by their
// module import paths, and loads each one once, so an importer sees the very
// *types.Package the pattern's package is. A relative dir used to fall back
// to directory base names and type-check every pattern package twice.
func TestLoadRelativeDir(t *testing.T) {
	pkgs, err := Load(".", []string{"../advise", "../summary"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("loaded %d packages, want 2", len(pkgs))
	}
	advise, summary := pkgs[0], pkgs[1]
	if advise.Path != "mixedmem/internal/analysis/advise" || summary.Path != "mixedmem/internal/analysis/summary" {
		t.Fatalf("paths %q, %q; want module import paths", advise.Path, summary.Path)
	}
	for _, imp := range advise.Types.Imports() {
		if imp.Path() == summary.Path {
			if imp != summary.Types {
				t.Fatal("advise imports a second copy of summary")
			}
			return
		}
	}
	t.Fatal("advise does not import summary")
}
