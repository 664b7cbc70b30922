package instrument

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// exprStr renders one expression, rewriting instrumented reads.
func (em *emitter) exprStr(e ast.Expr) string {
	if t, ok := em.replaced[e]; ok {
		return t
	}
	switch e := e.(type) {
	case *ast.Ident:
		return em.identExpr(e)
	case *ast.BasicLit:
		return e.Value
	case *ast.ParenExpr:
		return "(" + em.exprStr(e.X) + ")"
	case *ast.BinaryExpr:
		return em.binExpr(e)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return em.addrOf(e)
		}
		if e.Op == token.ARROW {
			em.fail(e.Pos(), "channel receive in unsupported position")
		}
		s := em.exprStr(e.X)
		if _, ok := e.X.(*ast.BinaryExpr); ok {
			s = "(" + s + ")"
		}
		return e.Op.String() + s
	case *ast.StarExpr:
		if em.isCellPtr(e.X) {
			return em.exprStr(e.X) + ".Load(g)"
		}
		return "*" + em.exprStr(e.X)
	case *ast.SelectorExpr:
		return em.selectorExpr(e)
	case *ast.IndexExpr:
		switch em.exprKind(e.X) {
		case kSlice:
			return em.baseObjExpr(e.X) + ".Get(g, " + em.exprStr(e.Index) + ")"
		case kMap:
			em.fail(e.Pos(), "map read in unsupported position")
		}
		return em.exprStr(e.X) + "[" + em.exprStr(e.Index) + "]"
	case *ast.SliceExpr:
		if em.exprKind(e.X) == kSlice {
			em.fail(e.Pos(), "slice expression on a modeled slice only supported as s = s[:n]")
		}
		return em.origPrint(e)
	case *ast.CallExpr:
		return em.callExpr(e)
	case *ast.CompositeLit:
		return em.compositeLit(e)
	case *ast.FuncLit:
		return em.renderFuncLit(e)
	default:
		em.fail(e.Pos(), "unsupported expression %T", e)
		return ""
	}
}

// identExpr renders a bare identifier read.
func (em *emitter) identExpr(id *ast.Ident) string {
	if f, ok := em.an.info.Uses[id].(*types.Func); ok && f.Pkg() == em.an.pkg {
		em.fail(id.Pos(), "using subject function %s as a value is unsupported; use a function literal", id.Name)
	}
	v := em.an.varOf(id)
	switch em.an.kindOf(id) {
	case kCell:
		if t, ok := em.subst[v]; ok {
			return t
		}
		return id.Name + ".Load(g)"
	case kAtomic:
		return id.Name + ".PlainLoad(g)"
	}
	return id.Name
}

// binExpr renders a binary expression with minimal re-parenthesizing.
func (em *emitter) binExpr(e *ast.BinaryExpr) string {
	l, r := em.exprStr(e.X), em.exprStr(e.Y)
	if c, ok := e.X.(*ast.BinaryExpr); ok && c.Op.Precedence() < e.Op.Precedence() {
		l = "(" + l + ")"
	}
	if c, ok := e.Y.(*ast.BinaryExpr); ok && c.Op.Precedence() <= e.Op.Precedence() {
		r = "(" + r + ")"
	}
	return l + " " + e.Op.String() + " " + r
}

// addrOf renders &x: taking the address of a cell yields the cell
// holder itself.
func (em *emitter) addrOf(u *ast.UnaryExpr) string {
	switch x := u.X.(type) {
	case *ast.Ident:
		// All modeled kinds are holder pointers already.
		if em.an.kindOf(x) != kPlain {
			return x.Name
		}
		return "&" + x.Name
	case *ast.SelectorExpr:
		if _, cell := em.cellField(x); cell {
			return em.exprStr(x.X) + "." + x.Sel.Name
		}
		// A pointer to a basic type is a cell pointer in the generated
		// program, and a field of a held value has no address there.
		if em.isCellPtr(u) || em.heldBase(x) != nil {
			em.fail(u.Pos(), "address of field %s: only a cellified field's address is supported", x.Sel.Name)
		}
		return "&" + em.exprStr(x)
	case *ast.CompositeLit:
		if si := em.an.cellStructOf(em.an.info.Types[x].Type); si != nil {
			return em.cellStructLit(x, si)
		}
		return "&" + em.compositeLit(x)
	}
	return "&" + em.exprStr(u.X)
}

// selectorExpr renders pkg.Name, cell-field reads, and plain field
// accesses.
func (em *emitter) selectorExpr(sel *ast.SelectorExpr) string {
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := em.an.info.Uses[id].(*types.PkgName); ok {
			path := pn.Imported().Path()
			if path == "sync" || path == "sync/atomic" {
				em.fail(sel.Pos(), "unsupported %s reference %s", path, sel.Sel.Name)
			}
			em.imports[path] = true
			return pn.Imported().Name() + "." + sel.Sel.Name
		}
	}
	if fk, cell := em.cellField(sel); cell {
		base := em.exprStr(sel.X) + "." + sel.Sel.Name
		switch fk {
		case kCell:
			return base + ".Load(g)"
		case kAtomic:
			return base + ".PlainLoad(g)"
		}
		return base // holder field: chan/map/slice/sync primitive
	}
	if s, ok := em.an.info.Selections[sel]; ok && s.Kind() != types.FieldVal {
		if f, isF := s.Obj().(*types.Func); isF && f.Pkg() == em.an.pkg {
			em.fail(sel.Pos(), "method value %s unsupported; call it directly", sel.Sel.Name)
		}
	}
	return em.exprStr(sel.X) + "." + sel.Sel.Name
}

// compositeLit renders a composite literal with rewritten elements.
func (em *emitter) compositeLit(cl *ast.CompositeLit) string {
	if si := em.an.cellStructOf(em.an.info.Types[cl].Type); si != nil {
		em.fail(cl.Pos(), "cellified struct %s must be constructed as &%s{...}", si.name, si.name)
	}
	if !em.interesting(cl) {
		return em.origPrint(cl)
	}
	var parts []string
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			parts = append(parts, em.exprStr(kv.Key)+": "+em.exprStr(kv.Value))
			continue
		}
		parts = append(parts, em.exprStr(el))
	}
	typ := ""
	if cl.Type != nil {
		typ = em.goType(em.an.info.Types[cl].Type)
	}
	return typ + "{" + strings.Join(parts, ", ") + "}"
}

// cellStructLit renders &S{...} for a cellified struct: every field
// becomes an initialized holder.
func (em *emitter) cellStructLit(cl *ast.CompositeLit, si *structInfo) string {
	vals := map[string]ast.Expr{}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			em.fail(el.Pos(), "cellified struct literal %s must use keyed fields", si.name)
		}
		vals[kv.Key.(*ast.Ident).Name] = kv.Value
	}
	var parts []string
	for _, fv := range si.fields {
		fname := fv.Name()
		cellName := si.name + "." + fname
		init, has := vals[fname]
		var s string
		switch k := declKind(si.kinds[fname], fv.Type()); k {
		case kPlain:
			if !has {
				continue
			}
			s = em.exprStr(init)
		case kCell:
			if has {
				s = fmt.Sprintf("sched.NewVarOf[%s](g, %q, %s)", em.goType(fv.Type()), cellName, em.exprStr(init))
			} else {
				s = fmt.Sprintf("sched.NewVar[%s](g, %q)", em.goType(fv.Type()), cellName)
			}
		case kAtomic:
			s = fmt.Sprintf("sched.NewAtomic(g, %q)", cellName)
		case kSlice:
			elem := em.goType(fv.Type().Underlying().(*types.Slice).Elem())
			if has {
				s = fmt.Sprintf("sched.NewSliceOf[%s](g, %q, %s)", elem, cellName, em.exprStr(init))
			} else {
				s = fmt.Sprintf("sched.NewSlice[%s](g, %q, 0)", elem, cellName)
			}
		case kMap:
			mt := fv.Type().Underlying().(*types.Map)
			if has {
				em.fail(init.Pos(), "map field initializer in cellified struct literal unsupported")
			}
			s = fmt.Sprintf("sched.NewMap[%s, %s](g, %q)", em.goType(mt.Key()), em.goType(mt.Elem()), cellName)
		case kMutex, kRW, kWG, kOnce:
			s = fmt.Sprintf("sched.New%s(g, %q)", syncTypes[k], cellName)
		case kChan:
			if has {
				em.fail(init.Pos(), "channel field initializer in cellified struct literal unsupported; make it in code")
			}
			s = "nil"
		}
		parts = append(parts, fname+": "+s)
	}
	return "&" + si.name + "{" + strings.Join(parts, ", ") + "}"
}

// renderFuncLit renders a function literal with an instrumented body.
// Literals capture g lexically, so their signatures carry no g param.
func (em *emitter) renderFuncLit(lit *ast.FuncLit) string {
	sig := em.an.info.Types[lit].Type.(*types.Signature)
	for i := 0; i < sig.Results().Len(); i++ {
		if rv := sig.Results().At(i); rv.Name() != "" && declKind(em.an.kinds[rv], rv.Type()) != kPlain {
			em.fail(lit.Pos(), "captured named result %s in function literal unsupported", rv.Name())
		}
	}
	// Named results are kept, so bare returns stay valid.
	header := em.signature(sig, nil, func(_ int, p *types.Var) string {
		if pname := em.paramName(p); pname != "" {
			return pname
		}
		return "_"
	}, true)

	saved := em.buf
	em.buf = bytes.Buffer{}
	em.buf.WriteString(header + " {\n")
	em.ind++
	em.emitSharedParamPrologue(sig)
	savedResults := em.curResults
	em.curResults = nil
	em.stmtList(lit.Body.List)
	em.curResults = savedResults
	em.ind--
	em.buf.WriteString(strings.Repeat("\t", em.ind) + "}")
	out := em.buf.String()
	em.buf = saved
	return out
}
