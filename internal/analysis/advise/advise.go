// Package advise is the static counterpart of check.Advise: the paper's
// compiler check (Section 4) run over source instead of a recorded history.
// For each constant location it recommends the weakest read label the
// corollaries justify, walking the lattice bottom-up — LabelSlow when the
// phase discipline provably holds and barriers are the program's only
// synchronization (Corollary 2's proof survives with slow reads because the
// slow-memory relation retains barrier edges), LabelPRAM when the phase
// discipline provably holds but awaits or locks appear (they lean on the
// per-sender FIFO slow memory drops), LabelCausal when the entry discipline
// provably holds (Corollary 1), and LabelSC otherwise — sequentially
// consistent reads are the lattice top and need no program condition.
//
// The engine is interprocedural: it scans only root units — functions
// nothing calls statically, or that escape as values or goroutine bodies —
// and virtually inlines every resolvable callee at its call sites, carrying
// the calling context down (barrier phase base, barrier sealing from the
// call site to the root's exits, loop membership, role guard, concrete lock
// state). A helper's write therefore lands in the root's phase numbering,
// and the old "accesses span multiple functions" rejection applies only to
// genuinely separate roots. Callees it cannot place — recursive cycles,
// over-deep chains — poison exactly the locations they access (their advice
// pins to LabelSC) instead of voiding the whole function.
//
// The engine stays deliberately more conservative than the per-function
// diagnostics of the mixedvet analyzers, because its claims must hold for
// every execution: the dynamic checker sees one history and flags what
// happened, while a static PRAM claim asserts that no history violates the
// phase condition. In particular:
//
//   - One write with a non-constant location anywhere in the scanned
//     program voids every claim (it could target any location); a
//     non-constant read voids claims for every written location.
//   - The phase structure must be statically unambiguous: every root must
//     reach each program point — callee barriers included — having passed
//     one statically-known number of barriers.
//   - A PRAM claim for a location requires all of its accesses under a
//     single root, every write guarded to one constant process role
//     (`if p.ID() == k`), writes out of loops, write/write and read/write
//     pairs in distinct phases, and a barrier between the last access and
//     every root exit (otherwise back-to-back invocations of the root can
//     place the last access and the next invocation's first access in the
//     same phase).
//   - Any call no analysis can see through (function values, interface
//     methods, the standard library, goroutine spawns) makes the enclosing
//     root opaque and voids claims for the locations it accesses.
//
// SPMD branch concurrency is why the engine reasons about phases and roles
// rather than control-flow paths: a write under `case 0:` and a read under
// `case 1:` share no path, yet execute in the same dynamic phase on
// different processes.
package advise

import (
	"fmt"
	"go/ast"
	"sort"

	"mixedmem/internal/analysis/callgraph"
	"mixedmem/internal/analysis/framework"
	"mixedmem/internal/analysis/mixedapi"
	"mixedmem/internal/analysis/summary"
	"mixedmem/internal/history"
)

// LocationAdvice is the static advice for one constant location.
type LocationAdvice struct {
	Loc string
	// Label is the weakest read label justified for every execution:
	// LabelSlow < LabelPRAM < LabelCausal < LabelSC in cost, the reverse
	// in strength.
	Label     history.Label
	Rationale string
}

// Result is the advice for a set of packages analyzed together.
type Result struct {
	// Advice holds one entry per constant location, sorted by location.
	Advice []LocationAdvice
	// LockOf records the lock association behind each LabelCausal entry —
	// the lock map a dynamic check.Advise of the same program would need.
	LockOf map[string]string
}

// Rank orders labels by strength for never-weaker comparisons: a static
// label is sound if its rank is >= the rank of the dynamic advice. The
// unconditioned labels (LabelSC and the legacy LabelNone) share the top.
func Rank(l history.Label) int {
	switch l {
	case history.LabelSlow:
		return 0
	case history.LabelPRAM:
		return 1
	case history.LabelCausal:
		return 2
	}
	return 3
}

// ProgramLabel folds per-location advice into a single program-level label,
// comparable with the program-level check.Advise: the strongest (most
// conservative) requirement of any location. ok is false when the advice
// covers no access site: nothing was proved, so no label is sound.
func (r *Result) ProgramLabel() (label history.Label, ok bool) {
	if len(r.Advice) == 0 {
		return history.LabelNone, false
	}
	out := history.LabelSlow
	for _, a := range r.Advice {
		if Rank(a.Label) > Rank(out) {
			out = a.Label
		}
	}
	return out, true
}

// ProgramVerdict is ProgramLabel as the reports print it: the label, or
// "unknown" for advice over no access site.
func (r *Result) ProgramVerdict() string {
	if l, ok := r.ProgramLabel(); ok {
		return l.String()
	}
	return "unknown"
}

// maxDepth bounds virtual inlining; chains deeper than this poison the
// callee's locations like a recursive cycle would.
const maxDepth = 32

// site is one constant-location access with its static context, root
// phase numbering and calling context composed in.
type site struct {
	call mixedapi.Call
	unit int // root scan index
	// role the access is guarded to (locally, or inherited from the call
	// chain); roleKnown false means it runs on every process.
	role      int
	roleKnown bool
	// phase is the barrier count at the site counted from the root's
	// entry; phaseOK false means the access is unreachable or the phase
	// structure is ambiguous somewhere on the chain.
	phase   int
	phaseOK bool
	// barrierSealed means every path from the access to the root's exits
	// crosses a full barrier (in the access's unit or after the call
	// returns).
	barrierSealed bool
	// inLoop means the access's block — or any call site on the chain —
	// lies on a control-flow cycle.
	inLoop bool
	// locks is the lock state immediately before the access.
	locks summary.LockState
}

// unitFacts is what the engine knows about one scanned root.
type unitFacts struct {
	thread bool // a Forall thread body
	opaque bool // contains (transitively) a call the engine cannot see through
}

// ctx is the calling context of one virtual-inline frame.
type ctx struct {
	unit        int
	phaseBase   int
	ok          bool // phase numbering valid down the chain
	sealedAfter bool // a barrier separates the call's return from root exit
	inLoop      bool
	role        int
	roleKnown   bool
	locks       summary.LockState
	depth       int
}

// Packages runs the engine over packages loaded together as one program.
// The named packages are the judged program: their root units — and units
// whose only callers live outside the judged set, which the engine must
// treat as entered from unknown contexts — are scanned, and everything
// statically reachable from them (in any package of the load) is inlined.
func Packages(pkgs []*framework.Package) *Result {
	eng := &engine{
		sites:    make(map[string][]site),
		poisoned: make(map[string]string),
		inPkgs:   make(map[*framework.Package]bool),
	}
	if len(pkgs) > 0 {
		eng.set = summary.Of(pkgs[0].Prog)
	}
	for _, pkg := range pkgs {
		eng.inPkgs[pkg] = true
	}
	for _, pkg := range pkgs {
		eng.scanPackage(pkg)
	}
	return eng.decide()
}

type engine struct {
	set            *summary.Set
	inPkgs         map[*framework.Package]bool
	units          []unitFacts
	sites          map[string][]site // constant location -> accesses
	poisoned       map[string]string // location -> why it cannot be placed
	dynamicWrites  bool
	dynamicReads   bool
	syncCalls      bool // an await or lock operation appears somewhere
	phasesCoherent bool // true unless some scanned phase structure is ambiguous
	scanned        bool
}

func (e *engine) scanPackage(pkg *framework.Package) {
	if !e.scanned {
		e.scanned = true
		e.phasesCoherent = true
	}
	threads := mixedapi.ThreadBodies(pkg.Info, pkg.Files)
	for _, unit := range mixedapi.Units(pkg.Files) {
		node := e.set.Node(unit.Body)
		if node != nil && !node.IsRoot() && e.calledFromJudged(node) {
			// Reached through its callers: its accesses are inlined at
			// every call site instead of scanned out of context.
			continue
		}
		sum := e.set.Summary(unit.Body)
		if sum == nil {
			continue
		}
		id := len(e.units)
		e.units = append(e.units, unitFacts{
			thread: threads[unit.Body],
			opaque: sum.Opaque,
		})
		// Program-global properties come from the root's transitive
		// summary: one dynamic-location write anywhere voids every claim.
		e.dynamicWrites = e.dynamicWrites || sum.DynamicWrite
		e.dynamicReads = e.dynamicReads || sum.DynamicRead
		e.syncCalls = e.syncCalls || sum.SyncOps
		e.scanUnit(unit.Body, ctx{
			unit:  id,
			ok:    true,
			locks: e.set.LockEntry(unit.Body),
		})
	}
}

// calledFromJudged reports whether some caller belongs to the judged
// package set. A unit whose callers all live outside it (an apps solver
// invoked only by a bench harness, say) must still be judged, entered from
// an unknown context, or its accesses would silently drop out.
func (e *engine) calledFromJudged(node *callgraph.Node) bool {
	for _, c := range node.Callers {
		if e.inPkgs[c.Pkg] {
			return true
		}
	}
	return false
}

// scanUnit records the unit's access sites under the given context and
// descends into resolvable callees.
func (e *engine) scanUnit(body *ast.BlockStmt, c ctx) {
	sh := e.set.Shape(body)
	if sh == nil {
		return
	}
	if !sh.Coherent {
		e.phasesCoherent = false
	}
	locksAt := func(expr *ast.CallExpr) summary.LockState {
		if c.depth == 0 {
			// Root frame: the memoized concrete flow is the most precise.
			return e.set.LockFlow(body).At(expr)
		}
		st := c.locks.Clone()
		for k, eff := range e.set.TransferBefore(body, expr) {
			summary.ApplyEffect(st, k, eff)
		}
		return st
	}
	for _, blk := range sh.Graph.Blocks {
		phase, reached := sh.Phase[blk], sh.Reached[blk]
		for _, ev := range sh.Events[blk] {
			if ev.IsOp {
				op := ev.Op
				switch {
				case op.Op == mixedapi.OpBarrier:
					phase++
					continue
				case (op.Op == mixedapi.OpWrite || op.Op.IsRead()) && op.Const:
				default:
					continue
				}
				role, roleKnown := sh.Roles[op.Expr]
				if !roleKnown {
					role, roleKnown = c.role, c.roleKnown
				}
				e.sites[op.Name] = append(e.sites[op.Name], site{
					call:          op,
					unit:          c.unit,
					role:          role,
					roleKnown:     roleKnown,
					phase:         c.phaseBase + phase,
					phaseOK:       c.ok && reached && sh.Coherent,
					barrierSealed: sh.Sealed[op.Expr] || c.sealedAfter,
					inLoop:        c.inLoop || sh.Loops[blk],
					locks:         locksAt(op.Expr),
				})
				continue
			}
			if ev.Spawned || ev.Callee == nil {
				// Spawned callees are roots of their own; unresolved calls
				// are already folded into the root's Opaque flag.
				continue
			}
			cs := e.set.Summary(ev.Callee.Body)
			if cs == nil {
				continue
			}
			if ev.Callee.Recursive || c.depth >= maxDepth {
				// The callee's accesses cannot be placed in the root's
				// phase numbering: pin its locations to SC. Its own
				// opacity or dynamic accesses void the whole root.
				if cs.Opaque || cs.DynamicWrite || cs.DynamicRead {
					e.units[c.unit].opaque = true
				}
				why := fmt.Sprintf("accessed in %s, which the engine cannot place statically (recursive or too deep)", ev.Callee.Name())
				for loc := range cs.AllW {
					e.poison(loc, why)
				}
				for loc := range cs.AllR {
					e.poison(loc, why)
				}
			} else {
				role, roleKnown := sh.Roles[ev.Call]
				if !roleKnown {
					role, roleKnown = c.role, c.roleKnown
				}
				e.scanUnit(ev.Callee.Body, ctx{
					unit:        c.unit,
					phaseBase:   c.phaseBase + phase,
					ok:          c.ok && reached && sh.Coherent,
					sealedAfter: sh.Sealed[ev.Call] || c.sealedAfter,
					inLoop:      c.inLoop || sh.Loops[blk],
					role:        role,
					roleKnown:   roleKnown,
					locks:       locksAt(ev.Call),
					depth:       c.depth + 1,
				})
			}
			if cs.DeltaExact {
				phase += cs.Delta
			}
		}
	}
}

func (e *engine) poison(loc, why string) {
	if _, ok := e.poisoned[loc]; !ok {
		e.poisoned[loc] = why
	}
}

func (e *engine) decide() *Result {
	res := &Result{LockOf: make(map[string]string)}
	seen := make(map[string]bool, len(e.sites)+len(e.poisoned))
	locs := make([]string, 0, len(e.sites)+len(e.poisoned))
	for loc := range e.sites {
		if !seen[loc] {
			seen[loc] = true
			locs = append(locs, loc)
		}
	}
	for loc := range e.poisoned {
		if !seen[loc] {
			seen[loc] = true
			locs = append(locs, loc)
		}
	}
	sort.Strings(locs)
	for _, loc := range locs {
		res.Advice = append(res.Advice, e.adviseLoc(loc, res.LockOf))
	}
	return res
}

func (e *engine) adviseLoc(loc string, lockOf map[string]string) LocationAdvice {
	if why, ok := e.poisoned[loc]; ok {
		return LocationAdvice{loc, history.LabelSC, why}
	}
	sites := e.sites[loc]
	var writes, reads []site
	for _, s := range sites {
		if s.call.Op == mixedapi.OpWrite {
			writes = append(writes, s)
		} else {
			reads = append(reads, s)
		}
	}
	if e.dynamicWrites {
		return LocationAdvice{loc, history.LabelSC,
			"a write with a non-constant location elsewhere in the program could target this location in any phase"}
	}
	if reason := e.pramReason(loc, writes, reads); reason == "" {
		if !e.syncCalls {
			return LocationAdvice{loc, history.LabelSlow,
				"phase discipline holds and barriers are the only synchronization: Corollary 2 extends to slow reads"}
		}
		return LocationAdvice{loc, history.LabelPRAM,
			"phase discipline holds on every execution: Corollary 2 permits PRAM reads (awaits or locks elsewhere rely on per-sender FIFO, rejecting slow)"}
	} else if lock, ok := e.entryHolds(writes, reads); ok {
		lockOf[loc] = lock
		return LocationAdvice{loc, history.LabelCausal, fmt.Sprintf(
			"entry discipline holds under lock %q: Corollary 1 permits causal reads (PRAM rejected: %s)",
			lock, reason)}
	} else {
		return LocationAdvice{loc, history.LabelSC, fmt.Sprintf(
			"neither corollary provable, only sequentially consistent reads are unconditional (PRAM rejected: %s)", reason)}
	}
}

// pramReason checks the static phase discipline for one location; it
// returns "" when PRAM reads are justified for every execution.
func (e *engine) pramReason(loc string, writes, reads []site) string {
	if len(writes) == 0 {
		// Never written (counter increments are not writes): reads alone
		// cannot violate the phase condition, but the program's phase
		// structure must still be well defined for Corollary 2 to speak.
		if e.dynamicReads {
			return "" // a dynamic-location read of a never-written location is still just a read
		}
		if !e.phasesCoherent {
			return "the program's barrier structure is statically ambiguous"
		}
		return ""
	}
	if e.dynamicReads {
		return "a read with a non-constant location elsewhere in the program could read this location in a write phase"
	}
	if !e.phasesCoherent {
		return "the program's barrier structure is statically ambiguous"
	}
	unit := writes[0].unit
	all := append(append([]site(nil), writes...), reads...)
	for _, s := range all {
		if s.unit != unit {
			return "accesses span multiple root functions, so their phases cannot be compared"
		}
		if !s.phaseOK {
			return "an access's barrier phase is statically unknown"
		}
		if !s.barrierSealed {
			return "an access can reach a function exit without an intervening barrier, so repeated invocations may share a phase"
		}
	}
	if e.units[unit].thread {
		return "the accesses run on Forall thread strands, outside the barrier phase structure"
	}
	if e.units[unit].opaque {
		return "the function calls code the engine cannot see through"
	}
	for i, w := range writes {
		if !w.roleKnown {
			return fmt.Sprintf("a write of %q is not guarded to a single process role, so every process writes it in that phase", loc)
		}
		if w.inLoop {
			return fmt.Sprintf("a write of %q sits in a loop and can repeat within one phase", loc)
		}
		for _, w2 := range writes[i+1:] {
			if w.phase == w2.phase {
				return fmt.Sprintf("%q is written twice in phase %d", loc, w.phase)
			}
		}
		for _, r := range reads {
			if w.phase == r.phase {
				return fmt.Sprintf("%q is both read and written in phase %d", loc, w.phase)
			}
		}
	}
	return ""
}

// entryHolds checks the static entry discipline: every write under the
// write lock of one common lock, every read under that lock in some mode,
// in roots the engine can fully see.
func (e *engine) entryHolds(writes, reads []site) (string, bool) {
	if len(writes) == 0 && len(reads) == 0 {
		return "", false
	}
	if e.dynamicReads {
		// A dynamic-location read could read this location without its lock.
		return "", false
	}
	var lock string
	for i, w := range writes {
		if e.units[w.unit].opaque {
			return "", false // an unseen callee could release the lock
		}
		held := writeHeldLocks(w.locks)
		if len(held) != 1 {
			return "", false
		}
		if i == 0 {
			lock = held[0]
		} else if held[0] != lock {
			return "", false
		}
	}
	if lock == "" {
		return "", false
	}
	for _, r := range reads {
		if e.units[r.unit].opaque {
			return "", false
		}
		switch r.locks[lock] {
		case summary.ReadHeld, summary.WriteHeld:
		default:
			return "", false
		}
	}
	return lock, true
}

func writeHeldLocks(s summary.LockState) []string {
	var out []string
	for name, mode := range s {
		if mode == summary.WriteHeld {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
