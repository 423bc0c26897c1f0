// Command mixedvet applies the paper's compiler check (Section 4) to Go
// source written against the mixedmem core API. It runs five analyzers —
// lockdiscipline, labelconsistency, phasediscipline, entrydiscipline, and
// scopeusage — over the named packages and exits nonzero if any reports a
// finding.
//
// Usage:
//
//	mixedvet ./examples/... ./internal/apps/...
//	mixedvet -advise ./examples/jacobi     # weakest safe read label per location
//	mixedvet -c lockdiscipline ./...       # one analyzer only
//	mixedvet -json ./... > mixedvet.json   # machine-readable findings
//
// A finding can be suppressed with a //mixedvet:ignore comment on its line
// or on the line directly above — the annotation for deliberate discipline
// violations such as litmus programs. The exit code still reflects only
// unsuppressed findings.
//
// With -advise it also prints, per constant location, the weakest read
// label the corollaries statically justify (the static counterpart of
// check.Advise), walking the lattice slow < PRAM < causal < SC bottom-up:
// slow when the phase discipline provably holds and barriers are the only
// synchronization, PRAM when the phase discipline provably holds but awaits
// or locks appear, causal when the entry discipline provably holds, and SC
// otherwise — the lattice top needs no program condition.
package main

import (
	"flag"
	"fmt"
	"os"

	"mixedmem/internal/analysis/framework"
	"mixedmem/internal/analysis/mixedvet"
)

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mixedvet:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("mixedvet", flag.ContinueOnError)
	advise := fs.Bool("advise", false, "print the weakest statically-safe read label per location")
	only := fs.String("c", "", "run only the named analyzer")
	asJSON := fs.Bool("json", false, "print the report as JSON instead of text")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: mixedvet [-advise] [-c analyzer] packages...")
		fs.PrintDefaults()
		fmt.Fprintln(fs.Output(), "analyzers:")
		for _, a := range mixedvet.Analyzers {
			fmt.Fprintf(fs.Output(), "  %-17s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0, nil
		}
		return 2, err
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	analyzers := mixedvet.Analyzers
	if *only != "" {
		analyzers = nil
		for _, a := range mixedvet.Analyzers {
			if a.Name == *only {
				analyzers = []*framework.Analyzer{a}
			}
		}
		if analyzers == nil {
			return 2, fmt.Errorf("unknown analyzer %q", *only)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		return 2, err
	}
	rep, err := mixedvet.Run(wd, patterns, analyzers, *advise)
	if err != nil {
		return 2, err
	}
	if *asJSON {
		data, err := rep.JSON()
		if err != nil {
			return 2, err
		}
		fmt.Println(string(data))
		if len(rep.Findings) > 0 {
			return 1, nil
		}
		return 0, nil
	}
	for _, f := range rep.Findings {
		fmt.Println(f)
	}
	if rep.Advice != nil {
		for _, a := range rep.Advice.Advice {
			fmt.Printf("advise: %-12s %-6s  %s\n", a.Loc, a.Label, a.Rationale)
		}
		fmt.Printf("advise: program label: %s\n", rep.Advice.ProgramVerdict())
	}
	if len(rep.Findings) > 0 {
		return 1, nil
	}
	return 0, nil
}
