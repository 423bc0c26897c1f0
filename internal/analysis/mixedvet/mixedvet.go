// Package mixedvet drives the analyzer suite over a set of packages and
// aggregates the findings, including the two program-wide passes no single
// package sees: the cross-package label-consistency merge and the static
// advice engine.
package mixedvet

import (
	"encoding/json"
	"fmt"
	"go/token"
	"sort"
	"strings"

	"mixedmem/internal/analysis/advise"
	"mixedmem/internal/analysis/entrydiscipline"
	"mixedmem/internal/analysis/framework"
	"mixedmem/internal/analysis/labelconsistency"
	"mixedmem/internal/analysis/lockdiscipline"
	"mixedmem/internal/analysis/phasediscipline"
	"mixedmem/internal/analysis/scopeusage"
)

// Analyzers is the full mixedvet suite, in reporting order.
var Analyzers = []*framework.Analyzer{
	lockdiscipline.Analyzer,
	labelconsistency.Analyzer,
	phasediscipline.Analyzer,
	entrydiscipline.Analyzer,
	scopeusage.Analyzer,
}

// Finding is one diagnostic, located and attributed.
type Finding struct {
	Analyzer string
	Package  string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Report is the outcome of one mixedvet run.
type Report struct {
	Findings []Finding
	// Suppressed counts findings dropped by //mixedvet:ignore comments on
	// or directly above their line — the escape hatch for deliberate
	// discipline violations (litmus programs, seeded-bug fixtures).
	Suppressed int
	// Advice is the static advice engine's per-location result; nil unless
	// requested.
	Advice *advise.Result
}

// jsonReport is the -json wire shape: stable field names, positions as
// file:line:col strings, advice flattened.
type jsonReport struct {
	Findings   []jsonFinding `json:"findings"`
	Suppressed int           `json:"suppressed"`
	Advice     []jsonAdvice  `json:"advice,omitempty"`
	Program    string        `json:"programLabel,omitempty"`
}

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package,omitempty"`
	Pos      string `json:"pos"`
	Message  string `json:"message"`
}

type jsonAdvice struct {
	Loc       string `json:"loc"`
	Label     string `json:"label"`
	Rationale string `json:"rationale"`
}

// JSON renders the report as the machine-readable document `mixedvet -json`
// prints (and CI archives as an artifact).
func (r *Report) JSON() ([]byte, error) {
	doc := jsonReport{Findings: []jsonFinding{}, Suppressed: r.Suppressed}
	for _, f := range r.Findings {
		doc.Findings = append(doc.Findings, jsonFinding{
			Analyzer: f.Analyzer, Package: f.Package,
			Pos: f.Pos.String(), Message: f.Message,
		})
	}
	if r.Advice != nil {
		doc.Advice = []jsonAdvice{}
		for _, a := range r.Advice.Advice {
			doc.Advice = append(doc.Advice, jsonAdvice{
				Loc: a.Loc, Label: a.Label.String(), Rationale: a.Rationale,
			})
		}
		doc.Program = r.Advice.ProgramVerdict()
	}
	return json.MarshalIndent(doc, "", "  ")
}

// Run loads the packages matched by patterns (rooted at dir), applies every
// analyzer to each, and merges the program-wide passes. With withAdvise set
// it also runs the static advice engine over all loaded packages together.
func Run(dir string, patterns []string, analyzers []*framework.Analyzer, withAdvise bool) (*Report, error) {
	pkgs, err := framework.Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	if len(pkgs) == 0 {
		return nil, fmt.Errorf("mixedvet: no packages match %v", patterns)
	}
	rep := &Report{}
	// All packages of one Load share a FileSet, so cross-package positions
	// resolve through any of them.
	fset := pkgs[0].Fset

	var allSites []labelconsistency.Site
	intraMixed := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			got, err := framework.RunAnalyzer(a, pkg)
			if err != nil {
				return nil, fmt.Errorf("mixedvet: %s on %s: %w", a.Name, pkg.Path, err)
			}
			for _, d := range got.Diagnostics {
				rep.Findings = append(rep.Findings, Finding{
					Analyzer: a.Name,
					Package:  pkg.Path,
					Pos:      fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if res, ok := got.Result.(*labelconsistency.Result); ok {
				allSites = append(allSites, res.Sites...)
				// Locations already flagged within this package stay flagged
				// there; the merge below only adds mixes no package sees alone.
				for _, pair := range labelconsistency.Mixed(res.Sites) {
					intraMixed[pair[0].Loc] = true
				}
			}
		}
	}
	for _, pair := range labelconsistency.Mixed(allSites) {
		if intraMixed[pair[0].Loc] {
			continue
		}
		rep.Findings = append(rep.Findings, Finding{
			Analyzer: labelconsistency.Analyzer.Name,
			Pos:      fset.Position(pair[0].Pos),
			Message: fmt.Sprintf(
				"location %q is read with mixed labels across packages: %s here is PRAM-labeled, but %s reads it causally — pick one label per location",
				pair[0].Loc, pair[0].Descr, fset.Position(pair[1].Pos)),
		})
	}
	// //mixedvet:ignore on a finding's line, or on the line directly above
	// it, suppresses the finding: deliberate discipline violations (litmus
	// programs, checker fixtures) annotate themselves instead of forcing a
	// package-level exclusion.
	ignore := ignoreLines(pkgs)
	kept := rep.Findings[:0]
	for _, f := range rep.Findings {
		if ignore[lineKey{f.Pos.Filename, f.Pos.Line}] {
			rep.Suppressed++
			continue
		}
		kept = append(kept, f)
	}
	rep.Findings = kept
	sort.Slice(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i].Pos, rep.Findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return rep.Findings[i].Message < rep.Findings[j].Message
	})
	if withAdvise {
		rep.Advice = advise.Packages(pkgs)
	}
	return rep, nil
}

type lineKey struct {
	file string
	line int
}

// ignoreLines collects the lines covered by //mixedvet:ignore comments: the
// comment's own line (trailing form) and the line below it (preceding
// form).
func ignoreLines(pkgs []*framework.Package) map[lineKey]bool {
	out := make(map[lineKey]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.Contains(c.Text, "mixedvet:ignore") {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					out[lineKey{pos.Filename, pos.Line}] = true
					out[lineKey{pos.Filename, pos.Line + 1}] = true
				}
			}
		}
	}
	return out
}
