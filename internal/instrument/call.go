package instrument

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// callExpr dispatches a call: conversion, builtin, atomic/sync
// mapping, subject function, lifted method, or passthrough.
func (em *emitter) callExpr(call *ast.CallExpr) string {
	if tv, ok := em.an.info.Types[call.Fun]; ok && tv.IsType() {
		return em.goType(tv.Type) + "(" + em.exprStr(call.Args[0]) + ")"
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if _, ok := em.an.info.Uses[fun].(*types.Builtin); ok {
			return em.builtinCall(fun, call)
		}
		if f, ok := em.an.info.Uses[fun].(*types.Func); ok && f.Pkg() == em.an.pkg {
			return em.withG(fun.Name, "", call)
		}
		// Func-typed variable (a rewritten literal capturing g).
		return fun.Name + "(" + em.argList(call) + ")"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := em.an.info.Uses[id].(*types.PkgName); ok {
				path := pn.Imported().Path()
				switch path {
				case "sync/atomic":
					return em.atomicCall(fun.Sel.Name, call)
				case "sync":
					em.fail(call.Pos(), "unsupported sync function %s", fun.Sel.Name)
				}
				em.imports[path] = true
				return pn.Imported().Name() + "." + fun.Sel.Name + "(" + em.argList(call) + ")"
			}
		}
		if k := syncKind(em.an.info.TypeOf(fun.X)); k != kPlain {
			return em.syncMethodCall(k, fun, call)
		}
		if k := em.exprKind(fun.X); k == kChan || k == kMap || k == kSlice {
			em.fail(call.Pos(), "unsupported method %s on modeled container", fun.Sel.Name)
		}
		if s, ok := em.an.info.Selections[fun]; ok {
			if f, isF := s.Obj().(*types.Func); isF && f.Pkg() == em.an.pkg {
				return em.liftedCall(fun, f, call)
			}
		}
		return em.exprStr(fun.X) + "." + fun.Sel.Name + "(" + em.argList(call) + ")"
	case *ast.FuncLit:
		return em.renderFuncLit(fun) + "(" + em.argList(call) + ")"
	case *ast.ParenExpr:
		inner := *call
		inner.Fun = fun.X
		return em.callExpr(&inner)
	}
	em.fail(call.Pos(), "unsupported call form %T", call.Fun)
	return ""
}

// withG renders a subject-function call with the scheduler handle (and
// optional receiver) prepended.
func (em *emitter) withG(name, recv string, call *ast.CallExpr) string {
	args := []string{"g"}
	if recv != "" {
		args = append(args, recv)
	}
	if a := em.argList(call); a != "" {
		args = append(args, a)
	}
	return name + "(" + strings.Join(args, ", ") + ")"
}

// liftedCall renders a method call on a subject type as a call of the
// lifted closure variable.
func (em *emitter) liftedCall(fun *ast.SelectorExpr, f *types.Func, call *ast.CallExpr) string {
	recvT := f.Type().(*types.Signature).Recv().Type()
	if types.IsInterface(recvT) {
		// Lifted methods are closures, not methods, so no subject type
		// implements the interface and no T_M exists for its method.
		em.fail(call.Pos(), "method %s called through interface %s: subject interfaces are not supported",
			fun.Sel.Name, types.TypeString(recvT, types.RelativeTo(em.an.pkg)))
	}
	name := em.liftedName(fun.Pos(), recvT, fun.Sel.Name)
	recv := em.exprStr(fun.X)
	_, wantPtr := recvT.(*types.Pointer)
	_, havePtr := em.an.info.Selections[fun].Recv().Underlying().(*types.Pointer)
	if wantPtr && !havePtr {
		recv = "&" + recv
	}
	if !wantPtr && havePtr {
		recv = "*" + recv
	}
	return em.withG(name, recv, call)
}

// syncMethodCall maps sync primitive methods onto sched equivalents.
func (em *emitter) syncMethodCall(k varKind, fun *ast.SelectorExpr, call *ast.CallExpr) string {
	holder := em.exprStr(fun.X)
	m := fun.Sel.Name
	bad := func() string {
		em.fail(call.Pos(), "unsupported sync method %s", m)
		return ""
	}
	switch k {
	case kMutex:
		switch m {
		case "Lock", "Unlock":
			return holder + "." + m + "(g)"
		}
		return bad()
	case kRW:
		switch m {
		case "Lock", "Unlock", "RLock", "RUnlock":
			return holder + "." + m + "(g)"
		}
		return bad()
	case kWG:
		switch m {
		case "Add":
			return holder + ".Add(g, " + em.exprStr(call.Args[0]) + ")"
		case "Done", "Wait":
			return holder + "." + m + "(g)"
		}
		return bad()
	case kOnce:
		if m == "Do" {
			return holder + ".Do(g, " + em.exprStr(call.Args[0]) + ")"
		}
		return bad()
	}
	return bad()
}

// atomicCall maps sync/atomic calls onto the modeled Atomic.
func (em *emitter) atomicCall(name string, call *ast.CallExpr) string {
	u, ok := call.Args[0].(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		em.fail(call.Pos(), "atomic.%s requires an explicit &variable argument", name)
	}
	holder := em.baseObj(u.X)
	if holder == "" {
		em.fail(u.Pos(), "unsupported atomic target")
	}
	switch name {
	case "LoadInt64":
		return holder + ".Load(g)"
	case "StoreInt64":
		return holder + ".Store(g, " + em.exprStr(call.Args[1]) + ")"
	case "AddInt64":
		return holder + ".Add(g, " + em.exprStr(call.Args[1]) + ")"
	case "CompareAndSwapInt64":
		return holder + ".CompareAndSwap(g, " + em.exprStr(call.Args[1]) + ", " + em.exprStr(call.Args[2]) + ")"
	}
	em.fail(call.Pos(), "unsupported atomic operation %s (only the Int64 family is modeled)", name)
	return ""
}

// builtinCall maps builtins that touch modeled containers/channels.
func (em *emitter) builtinCall(fun *ast.Ident, call *ast.CallExpr) string {
	switch fun.Name {
	case "len":
		switch em.exprKind(call.Args[0]) {
		case kSlice, kMap:
			return em.baseObjExpr(call.Args[0]) + ".Len(g)"
		case kChan:
			return em.baseObjExpr(call.Args[0]) + ".Len()"
		}
	case "cap":
		if em.exprKind(call.Args[0]) == kChan {
			return em.baseObjExpr(call.Args[0]) + ".Cap()"
		}
	case "delete":
		if em.exprKind(call.Args[0]) == kMap {
			return em.baseObjExpr(call.Args[0]) + ".Delete(g, " + em.exprStr(call.Args[1]) + ")"
		}
	case "close":
		if em.exprKind(call.Args[0]) == kChan {
			return em.baseObjExpr(call.Args[0]) + ".Close(g)"
		}
		em.fail(call.Pos(), "close on a non-modeled channel")
	case "append":
		if em.exprKind(call.Args[0]) == kSlice {
			em.fail(call.Pos(), "append on a modeled slice only supported as s = append(s, ...)")
		}
	case "make":
		t := em.an.info.Types[call.Args[0]].Type
		if ch, ok := t.Underlying().(*types.Chan); ok {
			capStr := "0"
			if len(call.Args) > 1 {
				capStr = em.exprStr(call.Args[1])
			}
			return fmt.Sprintf("sched.NewChan[%s](g, %q, %s)", em.goType(ch.Elem()), em.tmp("ch"), capStr)
		}
	case "new":
		t := em.an.info.Types[call.Args[0]].Type
		if si := em.an.cellStructOf(t); si != nil {
			return em.cellStructLit(&ast.CompositeLit{}, si)
		}
	}
	return fun.Name + "(" + em.argList(call) + ")"
}

// argList renders call arguments, expanding modeled-slice variadics.
func (em *emitter) argList(call *ast.CallExpr) string {
	var parts []string
	for i, a := range call.Args {
		s := em.exprStr(a)
		if call.Ellipsis != token.NoPos && i == len(call.Args)-1 {
			if em.exprKind(a) == kSlice {
				s = em.baseObjExpr(a) + ".Values(g)"
			}
			s += "..."
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ", ")
}
