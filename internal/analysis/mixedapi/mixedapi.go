// Package mixedapi recognizes mixed-consistency memory and synchronization
// operations — calls on core.Process / core.Proc / core.ThreadOps and the
// package-level float helpers — in type-checked syntax, for the mixedvet
// analyzers. Recognition is by the method's defining package, so programs
// written against the core.Process interface are recognized no matter which
// implementation they run on.
package mixedapi

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// CorePathSuffix identifies the core package by import-path suffix, so the
// analyzers also work on a fork of the module under another name.
const CorePathSuffix = "internal/core"

func isCorePath(path string) bool { return strings.HasSuffix(path, CorePathSuffix) }

// Op classifies one recognized operation.
type Op int

// Operations of the model, as the analyzers group them.
const (
	// OpWrite is Write or core.WriteFloat: an ordinary (OpSet) write. The
	// zero Op is no operation.
	OpWrite Op = iota + 1
	// OpReadPRAM is ReadPRAM or core.ReadPRAMFloat.
	OpReadPRAM
	// OpReadCausal is ReadCausal or core.ReadCausalFloat.
	OpReadCausal
	// OpAwaitCausal is Await (causal view).
	OpAwaitCausal
	// OpAwaitPRAM is AwaitPRAM.
	OpAwaitPRAM
	// OpAdd is Add or AddFloat: a commutative counter-object operation,
	// exempt from the write disciplines (Section 5.3).
	OpAdd
	OpRLock
	OpRUnlock
	OpWLock
	OpWUnlock
	// OpBarrier is the full barrier; OpBarrierGroup the subset barrier,
	// which the phase analysis does not treat as a phase boundary.
	OpBarrier
	OpBarrierGroup
	// OpReadDynamic is core.Process.Read, whose label is chosen at run
	// time; the label analyzers skip it.
	OpReadDynamic
	// OpReadSlow is ReadSlow: the bottom of the label lattice, a read with
	// only per-location FIFO guarantees.
	OpReadSlow
	// OpReadSC is ReadSC: the top of the lattice, a blocking
	// sequentially-consistent read through the location's owner.
	OpReadSC
)

// IsRead reports whether the op observes a location's value (reads and
// awaits).
func (o Op) IsRead() bool {
	switch o {
	case OpReadPRAM, OpReadCausal, OpAwaitCausal, OpAwaitPRAM, OpReadDynamic,
		OpReadSlow, OpReadSC:
		return true
	}
	return false
}

// IsPRAMLabeled reports whether the op carries the PRAM label.
func (o Op) IsPRAMLabeled() bool { return o == OpReadPRAM || o == OpAwaitPRAM }

// IsCausalLabeled reports whether the op carries the causal label.
func (o Op) IsCausalLabeled() bool { return o == OpReadCausal || o == OpAwaitCausal }

// Call is one recognized operation site.
type Call struct {
	Op   Op
	Pos  token.Pos
	Expr *ast.CallExpr
	// Name is the operation's constant location or lock name; Const tells
	// whether it could be resolved statically. Operations without a
	// location/lock argument (Barrier) have Const false and empty Name.
	Name  string
	Const bool
}

// methodOps maps core method names to ops; the location/lock argument is
// always the first.
var methodOps = map[string]Op{
	"Write":      OpWrite,
	"ReadPRAM":   OpReadPRAM,
	"ReadCausal": OpReadCausal,
	"ReadSlow":   OpReadSlow,
	"ReadSC":     OpReadSC,
	"Await":      OpAwaitCausal,
	"AwaitPRAM":  OpAwaitPRAM,
	"Add":        OpAdd,
	"AddFloat":   OpAdd,
	"RLock":      OpRLock,
	"RUnlock":    OpRUnlock,
	"WLock":      OpWLock,
	"WUnlock":    OpWUnlock,
	"Read":       OpReadDynamic,
}

// funcOps maps core package-level helpers to ops; the location argument is
// the second (the first is the process handle).
var funcOps = map[string]Op{
	"WriteFloat":      OpWrite,
	"ReadPRAMFloat":   OpReadPRAM,
	"ReadCausalFloat": OpReadCausal,
}

// Classify inspects one call expression and reports the operation it
// performs, if it is a recognized mixed-consistency operation.
func Classify(info *types.Info, call *ast.CallExpr) (Call, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return Call{}, false
	}
	obj, ok := info.Uses[sel.Sel]
	if !ok {
		return Call{}, false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), CorePathSuffix) {
		return Call{}, false
	}
	name := fn.Name()
	out := Call{Pos: call.Pos(), Expr: call}
	// Package-level helpers: core.WriteFloat(p, loc, v) and friends.
	if fn.Type().(*types.Signature).Recv() == nil {
		op, ok := funcOps[name]
		if !ok {
			return Call{}, false
		}
		out.Op = op
		if len(call.Args) >= 2 {
			out.Name, out.Const = ConstString(info, call.Args[1])
		}
		return out, true
	}
	switch name {
	case "Barrier":
		out.Op = OpBarrier
		return out, true
	case "BarrierGroup":
		out.Op = OpBarrierGroup
		if len(call.Args) >= 1 {
			out.Name, out.Const = ConstString(info, call.Args[0])
		}
		return out, true
	}
	op, ok := methodOps[name]
	if !ok {
		return Call{}, false
	}
	out.Op = op
	if len(call.Args) >= 1 {
		out.Name, out.Const = ConstString(info, call.Args[0])
	}
	return out, true
}

// IsIDCall reports whether e is a call of the core ID() method — the
// process-identity accessor that role guards (`if p.ID() == 0`) test.
func IsIDCall(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj, ok := info.Uses[sel.Sel]
	if !ok {
		return false
	}
	fn, ok := obj.(*types.Func)
	return ok && fn.Name() == "ID" && fn.Pkg() != nil &&
		strings.HasSuffix(fn.Pkg().Path(), CorePathSuffix)
}

// ConstInt resolves e as a constant int, if it is one.
func ConstInt(info *types.Info, e ast.Expr) (int, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, ok := constant.Int64Val(tv.Value)
	return int(v), ok
}

// ConstString resolves e as a constant string, if it is one.
func ConstString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// TransparentCall reports whether a call expression cannot touch the
// model's memory, locks, or phase structure: a type conversion, a builtin,
// or an unclassified core-package helper (ID, N, Forall, stats accessors).
// Interprocedural passes skip transparent calls instead of treating them as
// opaque.
func TransparentCall(info *types.Info, call *ast.CallExpr) bool {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return true // conversion
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return false
	}
	switch obj := obj.(type) {
	case *types.Builtin:
		return true
	case *types.Func:
		return obj.Pkg() != nil && isCorePath(obj.Pkg().Path())
	}
	return false
}

// CallsIn collects the recognized operations lexically inside node, in
// source order, without descending into nested function literals — those
// are separate analysis units.
func CallsIn(info *types.Info, node ast.Node) []Call {
	var out []Call
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != node {
				return false
			}
		case *ast.CallExpr:
			if c, ok := Classify(info, n); ok {
				out = append(out, c)
			}
		}
		return true
	})
	return out
}

// FuncUnit is one intraprocedural analysis unit: a function declaration or
// a function literal. Nested literals are their own units.
type FuncUnit struct {
	// Name describes the unit for diagnostics: the declared name, or
	// "func literal" for literals.
	Name string
	Body *ast.BlockStmt
	Pos  token.Pos
}

// Units enumerates the analysis units of a file set: every function
// declaration with a body and every function literal.
func Units(files []*ast.File) []FuncUnit {
	var out []FuncUnit
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					out = append(out, FuncUnit{Name: n.Name.Name, Body: n.Body, Pos: n.Pos()})
				}
			case *ast.FuncLit:
				out = append(out, FuncUnit{Name: "func literal", Body: n.Body, Pos: n.Pos()})
			}
			return true
		})
	}
	return out
}
