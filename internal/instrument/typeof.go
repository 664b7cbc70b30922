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
		return em.signature(t, nil, nil, false)
	case *types.Interface:
		if t.Empty() {
			return "any"
		}
	}
	panic(emitErr{fmt.Errorf("instrument: unsupported type %s", t)})
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

// signature renders sig as a func type: lead first (the injected g
// and, for a lifted method, its receiver), then the parameters, each
// named by name (types only when name is nil), then the results, with
// their names when namedResults is set and sig names them.
func (em *emitter) signature(sig *types.Signature, lead []string, name func(i int, p *types.Var) string, namedResults bool) string {
	params := lead
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		t, dots := p.Type(), ""
		if sig.Variadic() && i == sig.Params().Len()-1 {
			t, dots = t.(*types.Slice).Elem(), "..."
		}
		s := dots + em.goType(t)
		if name != nil {
			s = name(i, p) + " " + s
		}
		params = append(params, s)
	}
	res := sig.Results()
	named := namedResults && res.Len() > 0 && res.At(0).Name() != ""
	var results []string
	for i := 0; i < res.Len(); i++ {
		s := em.goType(res.At(i).Type())
		if named {
			s = res.At(i).Name() + " " + s
		}
		results = append(results, s)
	}
	out := "func(" + strings.Join(params, ", ") + ")"
	switch {
	case len(results) == 1 && !named:
		return out + " " + results[0]
	case len(results) > 0:
		return out + " (" + strings.Join(results, ", ") + ")"
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
	return an.cellStructs[namedObj(t)]
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
	return contains(e, isFuncLit, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			return x.Op == token.ARROW
		case *ast.IndexExpr:
			return em.exprKind(x.X) == kMap
		}
		return false
	})
}

// interesting reports whether any part of n needs rewriting; verbatim
// passthrough is used otherwise.
func (em *emitter) interesting(n ast.Node) bool {
	return contains(n, nil, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.GoStmt, *ast.SelectStmt, *ast.SendStmt:
			return true
		case *ast.Ident:
			f, ok := em.an.info.Uses[c].(*types.Func)
			return em.an.kindOf(c) != kPlain || ok && f.Pkg() == em.an.pkg
		case *ast.SelectorExpr:
			if s, ok := em.an.info.Selections[c]; ok {
				if f, isF := s.Obj().(*types.Func); isF && f.Pkg() == em.an.pkg {
					return true
				}
			}
			_, cell := em.cellField(c)
			return cell
		case *ast.StarExpr:
			return em.isCellPtr(c.X)
		case *ast.UnaryExpr:
			// An address of a basic-typed location is a cell pointer.
			return c.Op == token.ARROW || c.Op == token.AND && em.isCellPtr(c)
		case *ast.CompositeLit:
			return em.an.cellStructOf(em.an.info.Types[c].Type) != nil
		case *ast.CallExpr:
			// make(chan T) lowers to sched.NewChan wherever it appears.
			_, ch := em.typeOf(c).(*types.Chan)
			return pkgSel(em.an.info, c, "atomic") != "" || ch && em.isMake(c)
		}
		return false
	})
}

// isMake reports whether e is a call of the builtin make.
func (em *emitter) isMake(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	_, builtin := em.an.info.Uses[id].(*types.Builtin)
	return ok && builtin && id.Name == "make"
}

// containsReturn reports whether s contains a return outside any
// function literal (such statements cannot pass through verbatim in
// functions whose named results were lowered).
func containsReturn(s ast.Stmt) bool {
	return contains(s, isFuncLit, func(n ast.Node) bool {
		_, ok := n.(*ast.ReturnStmt)
		return ok
	})
}

// contains reports whether match holds for any node under n, without
// looking inside the nodes for which skip (when non-nil) holds.
func contains(n ast.Node, skip, match func(ast.Node) bool) (found bool) {
	ast.Inspect(n, func(c ast.Node) bool {
		if found || c == nil || skip != nil && skip(c) {
			return false
		}
		found = match(c)
		return !found
	})
	return found
}

func isFuncLit(n ast.Node) bool {
	_, ok := n.(*ast.FuncLit)
	return ok
}
