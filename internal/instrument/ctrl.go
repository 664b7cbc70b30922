package instrument

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// loopBind prepares the binding of one range variable. Shared loop
// variables follow go1.21 semantics: ONE cell per loop, stored each
// iteration — the classic captured-loop-variable race shape.
func (em *emitter) loopBind(e ast.Expr) func(tmp string) {
	if e == nil {
		return func(string) {}
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		em.fail(e.Pos(), "range variable must be an identifier")
	}
	if id.Name == "_" {
		return func(string) {}
	}
	v := em.an.varOf(id)
	switch declKind(em.an.kinds[v], v.Type()) {
	case kPlain:
		return func(tmp string) {
			em.line("%s := %s", id.Name, tmp)
			em.line("_ = %s", id.Name)
		}
	case kCell:
		em.line("%s := sched.NewVar[%s](g, %q)", id.Name, em.goType(v.Type()), id.Name)
		return func(tmp string) {
			em.line("%s.Store(g, %s)", id.Name, tmp)
		}
	}
	em.fail(id.Pos(), "unsupported range variable kind for %s", id.Name)
	return nil
}

// rangeStmt lowers range loops over modeled channels, slices, and
// maps; plain ranges keep their header but bind shared loop variables
// through cells.
func (em *emitter) rangeStmt(s *ast.RangeStmt) {
	if s.Tok == token.ASSIGN {
		em.fail(s.Pos(), "range with = assignment unsupported")
	}
	switch em.exprKind(s.X) {
	case kChan:
		base := em.baseObjExpr(s.X)
		em.line("for {")
		em.ind++
		tv, tok := em.tmp("v"), em.tmp("ok")
		em.line("%s, %s := %s.Recv(g)", tv, tok, base)
		em.line("if !%s {", tok)
		em.line("\tbreak")
		em.line("}")
		bind := em.loopBind(s.Key)
		bind(tv)
		em.stmtList(s.Body.List)
		em.ind--
		em.line("}")
	case kSlice:
		base := em.baseObjExpr(s.X)
		n := em.tmp("n")
		em.line("%s := %s.Len(g)", n, base)
		bindKey := em.loopBind(s.Key)
		bindVal := em.loopBind(s.Value)
		i := em.tmp("i")
		em.line("for %s := 0; %s < %s; %s++ {", i, i, n, i)
		em.ind++
		bindKey(i)
		if s.Value != nil {
			ev := em.tmp("e")
			em.line("%s := %s.Get(g, %s)", ev, base, i)
			bindVal(ev)
		}
		em.stmtList(s.Body.List)
		em.ind--
		em.line("}")
	case kMap:
		base := em.baseObjExpr(s.X)
		bindKey := em.loopBind(s.Key)
		bindVal := em.loopBind(s.Value)
		k := em.tmp("k")
		em.line("for _, %s := range %s.Keys(g) {", k, base)
		em.ind++
		bindKey(k)
		if s.Value != nil {
			ev := em.tmp("e")
			em.line("%s, _ := %s.Get(g, %s)", ev, base, k)
			bindVal(ev)
		}
		em.stmtList(s.Body.List)
		em.ind--
		em.line("}")
	default:
		bindKey := em.loopBind(s.Key)
		bindVal := em.loopBind(s.Value)
		kt, vt := "_", ""
		if s.Key != nil {
			kt = em.tmp("k")
		}
		if s.Value != nil {
			vt = em.tmp("v")
		}
		hdr := "for " + kt
		if vt != "" {
			hdr += ", " + vt
		}
		hdr += " := range " + em.exprStr(s.X)
		if s.Key == nil {
			hdr = "for range " + em.exprStr(s.X)
		}
		em.line("%s {", hdr)
		em.ind++
		if kt != "_" {
			bindKey(kt)
		}
		if vt != "" {
			bindVal(vt)
		}
		em.stmtList(s.Body.List)
		em.ind--
		em.line("}")
	}
}

// switchStmt emits an expression switch; the init and any hoists live
// in a wrapper block.
func (em *emitter) switchStmt(s *ast.SwitchStmt) {
	wrap := s.Init != nil || (s.Tag != nil && em.needsHoist(s.Tag))
	if wrap {
		em.line("{")
		em.ind++
		if s.Init != nil {
			em.stmt(s.Init)
		}
		if s.Tag != nil {
			em.hoistInner(s.Tag)
		}
	}
	hdr := "switch"
	if s.Tag != nil {
		hdr += " " + em.exprStr(s.Tag)
	}
	em.line("%s {", hdr)
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			em.line("default:")
		} else {
			var parts []string
			for _, e := range cc.List {
				if em.needsHoist(e) {
					em.fail(e.Pos(), "channel/map operation in a case expression unsupported")
				}
				parts = append(parts, em.exprStr(e))
			}
			em.line("case %s:", strings.Join(parts, ", "))
		}
		em.ind++
		em.stmtList(cc.Body)
		em.ind--
	}
	em.line("}")
	if wrap {
		em.ind--
		em.line("}")
	}
}

// selectStmt lowers select onto g.Select with one SelectCase per
// clause. Case bodies run as closures: returns and labeled branches
// inside them are rejected; a plain break is dropped.
func (em *emitter) selectStmt(s *ast.SelectStmt) {
	em.line("g.Select(")
	em.ind++
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		body := em.selectBody(cc.Body)
		switch comm := cc.Comm.(type) {
		case nil:
			em.line("sched.Default(func() {")
		case *ast.SendStmt:
			if em.needsHoist(comm.Chan) || em.needsHoist(comm.Value) {
				em.fail(comm.Pos(), "nested channel/map operation in select send unsupported")
			}
			em.line("sched.OnSend(%s, %s, func() {", em.baseObjExpr(comm.Chan), em.exprStr(comm.Value))
		case *ast.ExprStmt:
			u, ok := comm.X.(*ast.UnaryExpr)
			if !ok || u.Op != token.ARROW {
				em.fail(comm.Pos(), "unsupported select clause")
			}
			em.line("sched.OnRecv(%s, func(_ %s, _ bool) {", em.baseObjExpr(u.X), em.chanElem(u.X))
		case *ast.AssignStmt:
			if comm.Tok != token.DEFINE {
				em.fail(comm.Pos(), "select receive must use :=")
			}
			u := comm.Rhs[0].(*ast.UnaryExpr)
			vn, okn := "_", "_"
			if id := comm.Lhs[0].(*ast.Ident); id.Name != "_" {
				vn = id.Name
			}
			if len(comm.Lhs) == 2 {
				if id := comm.Lhs[1].(*ast.Ident); id.Name != "_" {
					okn = id.Name
				}
			}
			em.line("sched.OnRecv(%s, func(%s %s, %s bool) {", em.baseObjExpr(u.X), vn, em.chanElem(u.X), okn)
			for _, l := range comm.Lhs {
				id := l.(*ast.Ident)
				if v := em.an.varOf(id); v != nil && em.an.kinds[v] != kPlain && id.Name != "_" {
					em.fail(id.Pos(), "select receive into a captured variable unsupported")
				}
			}
		default:
			em.fail(cc.Pos(), "unsupported select clause %T", cc.Comm)
		}
		em.ind++
		em.stmtList(body)
		em.ind--
		em.line("}),")
	}
	em.ind--
	em.line(")")
}

// chanElem renders the element type of a channel expression.
func (em *emitter) chanElem(ch ast.Expr) string {
	t := em.an.info.Types[ch].Type
	if c, ok := t.Underlying().(*types.Chan); ok {
		return em.goType(c.Elem())
	}
	em.fail(ch.Pos(), "expected a channel expression")
	return ""
}

// selectBody validates a select case body and strips the trailing
// plain break.
func (em *emitter) selectBody(body []ast.Stmt) []ast.Stmt {
	var out []ast.Stmt
	for _, st := range body {
		if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.BREAK && br.Label == nil {
			continue
		}
		ast.Inspect(st, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				em.fail(n.Pos(), "return inside a select case unsupported")
			case *ast.BranchStmt:
				if n.Label != nil {
					em.fail(n.Pos(), "labeled branch inside a select case unsupported")
				}
			}
			return true
		})
		out = append(out, st)
	}
	return out
}
