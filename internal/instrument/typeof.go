package instrument

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// goType renders a subject type in the generated program's vocabulary:
// pointers to basics become cell pointers, channels become modeled
// channels, imported names record their import.
func (em *emitter) goType(t types.Type) string {
	if k := syncKind(t); k != kPlain {
		// Sync primitives are already pointers in the model: *sync.Mutex
		// and sync.Mutex both become *sched.Mutex.
		return "*sched." + syncTypes[k]
	}
	switch t := t.(type) {
	case *types.Basic:
		if t.Info()&types.IsUntyped != 0 {
			return em.goType(types.Default(t))
		}
		return t.Name()
	case *types.Named:
		obj := t.Obj()
		if obj.Pkg() == nil || obj.Pkg() == em.an.pkg {
			return obj.Name()
		}
		em.imports[obj.Pkg().Path()] = true
		return obj.Pkg().Name() + "." + obj.Name()
	case *types.Pointer:
		if _, ok := t.Elem().Underlying().(*types.Basic); ok {
			return "*sched.Var[" + em.goType(t.Elem()) + "]"
		}
		return "*" + em.goType(t.Elem())
	case *types.Slice:
		return "[]" + em.goType(t.Elem())
	case *types.Array:
		return fmt.Sprintf("[%d]%s", t.Len(), em.goType(t.Elem()))
	case *types.Map:
		return "map[" + em.goType(t.Key()) + "]" + em.goType(t.Elem())
	case *types.Chan:
		return "*sched.Chan[" + em.goType(t.Elem()) + "]"
	case *types.Signature:
		return em.funcType(t)
	case *types.Interface:
		if t.Empty() {
			return "any"
		}
	}
	panic(emitErr{fmt.Errorf("instrument: unsupported type %s", t)})
}

// funcType renders a plain function type (literal-style: no g param —
// literals capture g lexically).
func (em *emitter) funcType(sig *types.Signature) string {
	var params []string
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if sig.Variadic() && i == sig.Params().Len()-1 {
			params = append(params, "..."+em.goType(p.Type().(*types.Slice).Elem()))
			continue
		}
		params = append(params, em.goType(p.Type()))
	}
	return "func(" + strings.Join(params, ", ") + ")" + em.resultTypes(sig)
}

// holderType renders the generated representation of one variable.
func (em *emitter) holderType(kind varKind, t types.Type) string {
	switch kind {
	case kCell:
		return "*sched.Var[" + em.goType(t) + "]"
	case kAtomic:
		return "*sched.Atomic"
	case kChan:
		return "*sched.Chan[" + em.goType(t.Underlying().(*types.Chan).Elem()) + "]"
	case kMap:
		mt := t.Underlying().(*types.Map)
		return "*sched.Map[" + em.goType(mt.Key()) + ", " + em.goType(mt.Elem()) + "]"
	case kSlice:
		return "*sched.Slice[" + em.goType(t.Underlying().(*types.Slice).Elem()) + "]"
	}
	return em.goType(t)
}

// sigType renders a rewritten function variable's type: g first.
func (em *emitter) sigType(sig *types.Signature) string {
	params := append([]string{"g *sched.G"}, em.typedParams(sig)...)
	return "func(" + strings.Join(params, ", ") + ")" + em.resultTypes(sig)
}

// methodSigType renders a lifted method variable's type: g, then the
// receiver, then the parameters.
func (em *emitter) methodSigType(sig *types.Signature) string {
	params := []string{"g *sched.G", "_ " + em.goType(sig.Recv().Type())}
	params = append(params, em.typedParams(sig)...)
	return "func(" + strings.Join(params, ", ") + ")" + em.resultTypes(sig)
}

// typedParams renders sig's parameter types (blank-named, since the g
// parameter before them is named).
func (em *emitter) typedParams(sig *types.Signature) []string {
	var out []string
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if sig.Variadic() && i == sig.Params().Len()-1 {
			out = append(out, "_ ..."+em.goType(p.Type().(*types.Slice).Elem()))
			continue
		}
		out = append(out, "_ "+em.goType(p.Type()))
	}
	return out
}

// cellField resolves a selector to a cellified-struct field kind.
func (em *emitter) cellField(sel *ast.SelectorExpr) (varKind, bool) {
	s, ok := em.an.info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return kPlain, false
	}
	si := em.an.cellStructOf(s.Recv())
	if si == nil {
		return kPlain, false
	}
	k, ok := si.kinds[sel.Sel.Name]
	if !ok {
		return kPlain, false
	}
	return k, true
}

// cellStructOf resolves a type (through one pointer) to its cellified
// struct info, or nil.
func (an *analysis) cellStructOf(t types.Type) *structInfo {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return an.cellStructs[named.Obj()]
}

// exprKind reports the modeled kind of the variable or field an
// expression denotes.
func (em *emitter) exprKind(e ast.Expr) varKind {
	switch x := e.(type) {
	case *ast.Ident:
		return em.an.kindOf(x)
	case *ast.SelectorExpr:
		if k, ok := em.cellField(x); ok {
			return k
		}
	case *ast.ParenExpr:
		return em.exprKind(x.X)
	}
	return kPlain
}

// baseObj renders the holder expression for a modeled container, or ""
// when e is not a direct variable/field reference.
func (em *emitter) baseObj(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		if _, ok := em.cellField(x); ok {
			return em.exprStr(x.X) + "." + x.Sel.Name
		}
	case *ast.ParenExpr:
		return em.baseObj(x.X)
	}
	return ""
}

// baseObjExpr is baseObj or a positioned failure.
func (em *emitter) baseObjExpr(e ast.Expr) string {
	if s := em.baseObj(e); s != "" {
		return s
	}
	em.fail(e.Pos(), "unsupported container expression")
	return ""
}

// isCellPtr reports whether e's static type is pointer-to-basic (its
// generated representation is a cell pointer).
func (em *emitter) isCellPtr(e ast.Expr) bool {
	t := em.an.info.Types[e].Type
	if t == nil {
		return false
	}
	p, ok := t.Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	_, basic := p.Elem().Underlying().(*types.Basic)
	return basic
}

// hoistInner pre-evaluates channel receives and map reads nested in e
// into temps, recording them in em.replaced (innermost first).
func (em *emitter) hoistInner(e ast.Expr) {
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return
		}
		children(n, walk)
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				if _, done := em.replaced[ast.Expr(x)]; !done {
					tv := em.tmp("r")
					em.line("%s, _ := %s.Recv(g)", tv, em.exprStr(x.X))
					em.replaced[x] = tv
				}
			}
		case *ast.IndexExpr:
			if em.exprKind(x.X) == kMap {
				if _, done := em.replaced[ast.Expr(x)]; !done {
					tv := em.tmp("v")
					em.line("%s, _ := %s.Get(g, %s)", tv, em.baseObjExpr(x.X), em.exprStr(x.Index))
					em.replaced[x] = tv
				}
			}
		}
	}
	walk(e)
}

// needsHoist reports whether e contains a receive or map read outside
// any function literal.
func (em *emitter) needsHoist(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.IndexExpr:
			if em.exprKind(x.X) == kMap {
				found = true
			}
		}
		return !found
	})
	return found
}

// interesting reports whether any part of n needs rewriting; verbatim
// passthrough is used otherwise.
func (em *emitter) interesting(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		switch c := c.(type) {
		case *ast.GoStmt, *ast.SelectStmt, *ast.SendStmt:
			found = true
		case *ast.Ident:
			if em.an.kindOf(c) != kPlain {
				found = true
			}
			if f, ok := em.an.info.Uses[c].(*types.Func); ok && f.Pkg() == em.an.pkg {
				found = true
			}
		case *ast.SelectorExpr:
			if s, ok := em.an.info.Selections[c]; ok {
				if f, isF := s.Obj().(*types.Func); isF && f.Pkg() == em.an.pkg {
					found = true
				}
			}
			if _, cell := em.cellField(c); cell {
				found = true
			}
		case *ast.StarExpr:
			if em.isCellPtr(c.X) {
				found = true
			}
		case *ast.UnaryExpr:
			if c.Op == token.ARROW {
				found = true
			}
		case *ast.CompositeLit:
			if em.an.cellStructOf(em.an.info.Types[c].Type) != nil {
				found = true
			}
		case *ast.CallExpr:
			if pkgSel(em.an.info, c, "atomic") != "" {
				found = true
			}
		}
		return !found
	})
	return found
}

// containsReturn reports whether s contains a return outside any
// function literal (such statements cannot pass through verbatim in
// functions whose named results were lowered).
func containsReturn(s ast.Stmt) bool {
	found := false
	ast.Inspect(s, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			found = true
		}
		return !found
	})
	return found
}
