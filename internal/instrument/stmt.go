package instrument

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// stmt emits one statement. Statements whose subtree touches nothing
// instrumented pass through verbatim.
func (em *emitter) stmt(s ast.Stmt) {
	// Functions with named results have them lowered out of the
	// signature, so any return must be rewritten even in otherwise
	// plain code.
	forced := len(em.curResults) > 0 && containsReturn(s)
	if !forced && !em.interesting(s) {
		for _, ln := range strings.Split(em.origPrint(s), "\n") {
			em.line("%s", ln)
		}
		return
	}
	prevReplaced := em.replaced
	em.replaced = map[ast.Expr]string{}
	defer func() { em.replaced = prevReplaced }()

	switch s := s.(type) {
	case *ast.AssignStmt:
		em.assign(s)
	case *ast.DeclStmt:
		em.declStmt(s)
	case *ast.IncDecStmt:
		em.update(s.X, s.Tok, nil)
	case *ast.ExprStmt:
		em.exprStmt(s)
	case *ast.SendStmt:
		em.hoistInner(s.Chan)
		em.hoistInner(s.Value)
		em.line("%s.Send(g, %s)", em.exprStr(s.Chan), em.exprStr(s.Value))
	case *ast.GoStmt:
		em.goStmt(s)
	case *ast.DeferStmt:
		em.deferStmt(s)
	case *ast.ReturnStmt:
		em.returnStmt(s)
	case *ast.IfStmt:
		em.ifStmt(s)
	case *ast.ForStmt:
		em.forStmt(s)
	case *ast.RangeStmt:
		em.rangeStmt(s)
	case *ast.SwitchStmt:
		em.switchStmt(s)
	case *ast.SelectStmt:
		em.selectStmt(s)
	case *ast.BlockStmt:
		em.block(s)
	case *ast.LabeledStmt:
		em.line("%s:", s.Label.Name)
		em.stmt(s.Stmt)
	case *ast.BranchStmt:
		em.line("%s", em.origPrint(s))
	case *ast.EmptyStmt:
	default:
		em.fail(s.Pos(), "unsupported statement %T", s)
	}
}

// exprStmt emits a top-level expression statement.
func (em *emitter) exprStmt(s *ast.ExprStmt) {
	if u, ok := s.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
		em.hoistInner(u.X)
		em.line("%s.Recv(g)", em.exprStr(u.X))
		return
	}
	em.hoistInner(s.X)
	em.line("%s", em.exprStr(s.X))
}

// assign emits an assignment, dispatching over the supported shapes.
func (em *emitter) assign(s *ast.AssignStmt) {
	// Compound ops: x op= e.
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		em.update(s.Lhs[0], s.Tok, s.Rhs[0])
		return
	}
	if len(s.Rhs) == 1 {
		// v[, ok] := <-ch and v[, ok] := m[k]
		if u, ok := s.Rhs[0].(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			em.hoistInner(u.X)
			em.bindRead(s, em.exprStr(u.X)+".Recv(g)")
			return
		}
		if ix, ok := s.Rhs[0].(*ast.IndexExpr); ok && em.exprKind(ix.X) == kMap {
			em.hoistInner(ix.Index)
			em.bindRead(s, em.baseObjExpr(ix.X)+".Get(g, "+em.exprStr(ix.Index)+")")
			return
		}
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
			if em.makeAssign(s, call) {
				return
			}
			if em.appendAssign(s, call) {
				return
			}
		}
		if sl, ok := s.Rhs[0].(*ast.SliceExpr); ok && em.exprKind(sl.X) == kSlice {
			em.truncateAssign(s, sl)
			return
		}
	}

	// Hoist receives/map-reads buried in RHS expressions.
	for _, r := range s.Rhs {
		em.hoistInner(r)
	}

	if s.Tok == token.DEFINE {
		em.define(s)
		return
	}
	em.plainAssign(s)
}

// bindRead emits `v[, ok] :=/= read`, where read renders a two-result
// channel receive or map read. A defined shared variable is bound
// through a temp and promoted; assigned locations are stored through
// storeTo.
func (em *emitter) bindRead(s *ast.AssignStmt, read string) {
	names := []string{"_", "_"}
	if s.Tok == token.DEFINE {
		for i, l := range s.Lhs {
			id := l.(*ast.Ident)
			names[i] = id.Name
			if em.an.kindOf(id) != kPlain && id.Name != "_" {
				names[i] = em.tmp("r")
			}
		}
		em.line("%s := %s", strings.Join(names, ", "), read)
		for i, l := range s.Lhs {
			if v := em.an.varOf(l.(*ast.Ident)); v != nil && em.an.kinds[v] != kPlain {
				em.promoteLocal(v, v.Name(), names[i])
			}
		}
		return
	}
	// Assignment to existing locations: read into temps, then store.
	names[0] = em.tmp("v")
	if len(s.Lhs) == 2 {
		names[1] = em.tmp("ok")
	}
	em.line("%s := %s", strings.Join(names, ", "), read)
	for i, l := range s.Lhs {
		em.storeTo(l, names[i])
	}
}

// makeAssign handles `x := make(...)` / `x = make(...)` for modeled
// kinds; returns false if the make is plain (or not a make).
func (em *emitter) makeAssign(s *ast.AssignStmt, call *ast.CallExpr) bool {
	if !em.isMake(call) || len(s.Lhs) != 1 {
		return false
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	switch k := em.an.kindOf(lhs); k {
	case kChan, kMap, kSlice:
		em.emitCellInit(lhs.Name, em.an.varOf(lhs), k, call, s.Tok)
		return true
	}
	return false
}

func (em *emitter) defineOrAssign(tok token.Token, name, rhs string) {
	op := "="
	if tok == token.DEFINE {
		op = ":="
	}
	em.line("%s %s %s", name, op, rhs)
}

// appendAssign handles `s = append(s, ...)` on modeled slices;
// returns false for plain appends.
func (em *emitter) appendAssign(s *ast.AssignStmt, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	base := em.baseObj(call.Args[0])
	if base == "" || em.exprKind(call.Args[0]) != kSlice {
		return false
	}
	if s.Tok == token.DEFINE {
		em.fail(s.Pos(), "append on a modeled slice must reassign the same variable")
	}
	lhsStr := em.baseObj(s.Lhs[0])
	if lhsStr != base {
		em.fail(s.Pos(), "append on a modeled slice must reassign the same variable")
	}
	if call.Ellipsis != token.NoPos {
		src := call.Args[1]
		var vals string
		if em.exprKind(src) == kSlice {
			vals = em.baseObjExpr(src) + ".Values(g)"
		} else {
			vals = em.exprStr(src)
		}
		tv := em.tmp("v")
		em.line("for _, %s := range %s {", tv, vals)
		em.ind++
		em.line("%s.Append(g, %s)", base, tv)
		em.ind--
		em.line("}")
		return true
	}
	for _, a := range call.Args[1:] {
		em.hoistInner(a)
		em.line("%s.Append(g, %s)", base, em.exprStr(a))
	}
	return true
}

// truncateAssign handles `s = s[:n]` on modeled slices.
func (em *emitter) truncateAssign(s *ast.AssignStmt, sl *ast.SliceExpr) {
	base := em.baseObj(sl.X)
	if base == "" || len(s.Lhs) != 1 || em.baseObj(s.Lhs[0]) != base {
		em.fail(s.Pos(), "slice expression on a modeled slice only supported as s = s[:n]")
	}
	if sl.Low != nil || sl.High == nil || sl.Max != nil {
		em.fail(s.Pos(), "slice expression on a modeled slice only supported as s = s[:n]")
	}
	em.hoistInner(sl.High)
	em.line("%s.Truncate(g, %s)", base, em.exprStr(sl.High))
}

// define emits `lhs... := rhs...`, promoting shared targets to cells.
func (em *emitter) define(s *ast.AssignStmt) {
	// Multi-value call: bind everything to temps first.
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		temps := make([]string, len(s.Lhs))
		for i := range temps {
			temps[i] = em.tmp("t")
		}
		em.line("%s := %s", strings.Join(temps, ", "), em.exprStr(s.Rhs[0]))
		for i, l := range s.Lhs {
			em.defineOne(l.(*ast.Ident), nil, temps[i])
		}
		return
	}
	if len(s.Lhs) != len(s.Rhs) {
		em.fail(s.Pos(), "unbalanced short declaration unsupported")
	}
	// Evaluate all RHS first (Go semantics), then bind.
	anyShared := false
	for _, l := range s.Lhs {
		if id, ok := l.(*ast.Ident); ok && em.an.kindOf(id) != kPlain {
			anyShared = true
		}
	}
	if !anyShared && len(s.Lhs) == 1 {
		id := s.Lhs[0].(*ast.Ident)
		em.line("%s := %s", id.Name, em.exprStr(s.Rhs[0]))
		return
	}
	for i, l := range s.Lhs {
		em.defineOne(l.(*ast.Ident), s.Rhs[i], "")
	}
}

// defineOne declares one variable, from either an expression or an
// already-evaluated temp.
func (em *emitter) defineOne(id *ast.Ident, rhs ast.Expr, temp string) {
	v := em.an.varOf(id)
	kind := kPlain
	if v != nil {
		kind = declKind(em.an.kinds[v], v.Type())
	}
	if cl, ok := rhs.(*ast.CompositeLit); ok && (kind == kSlice || kind == kMap) {
		em.emitCellInit(id.Name, v, kind, cl, token.DEFINE)
		return
	}
	val := temp
	if rhs != nil {
		val = em.exprStr(rhs)
	}
	switch {
	case id.Name == "_" || v == nil:
		em.line("_ = %s", val)
	case kind == kPlain:
		em.line("%s := %s", id.Name, val)
	case kind == kMap:
		em.fail(id.Pos(), "shared map %s: only make/literal initialization supported", id.Name)
	case syncTypes[kind] != "":
		em.fail(id.Pos(), "short declaration of a sync value unsupported (declare with var)")
	default:
		em.promoteLocal(v, id.Name, val)
	}
}

// plainAssign emits `lhs... = rhs...` (token.ASSIGN).
func (em *emitter) plainAssign(s *ast.AssignStmt) {
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		em.storeTo(s.Lhs[0], em.exprStr(s.Rhs[0]))
		return
	}
	if len(s.Rhs) == 1 {
		// Multi-value call into existing locations.
		temps := make([]string, len(s.Lhs))
		for i := range temps {
			temps[i] = em.tmp("t")
		}
		em.line("%s := %s", strings.Join(temps, ", "), em.exprStr(s.Rhs[0]))
		for i, l := range s.Lhs {
			em.storeTo(l, temps[i])
		}
		return
	}
	// Parallel assignment: evaluate RHS into temps, then store.
	temps := make([]string, len(s.Rhs))
	for i, r := range s.Rhs {
		temps[i] = em.tmp("t")
		em.line("%s := %s", temps[i], em.exprStr(r))
	}
	for i, l := range s.Lhs {
		em.storeTo(l, temps[i])
	}
}

// storeTo emits the store of an evaluated value (as Go source text)
// into an assignable location.
func (em *emitter) storeTo(lhs ast.Expr, val string) {
	em.write(lhs, token.ASSIGN, val)
}

// update emits `lhs op= rhs`, or `lhs++` / `lhs--` when rhs is nil.
func (em *emitter) update(lhs ast.Expr, tok token.Token, rhs ast.Expr) {
	val := ""
	if rhs != nil {
		em.hoistInner(rhs)
		val = em.exprStr(rhs)
	}
	em.write(lhs, tok, val)
}

// write emits one write of an assignable location: with token.ASSIGN
// it stores val; with an op= token it combines the current value with
// the operand val, and with ++/-- with 1. Every assignment statement
// writes through here, so =, op=, ++/-- and the bindings of receives
// and map reads accept the same locations. A location the generated
// program holds in a Go variable keeps Go's own form (x op= e, x++).
// A held one is resolved once, loaded by the rules of any read, and
// stored back. A field or array element of a held value
// read-modify-writes the whole value.
func (em *emitter) write(lhs ast.Expr, tok token.Token, val string) {
	lhs = unparen(lhs)
	if base := em.heldBase(lhs); base != nil {
		em.resolve(base)
		e := em.tmp("e")
		em.line("%s := %s", e, em.load(base))
		em.replaced[base] = e
		em.native(em.lvalue(lhs), tok, val)
		delete(em.replaced, base)
		em.write(base, token.ASSIGN, e)
		return
	}
	if !em.held(lhs) {
		em.native(em.lvalue(lhs), tok, val)
		return
	}
	if tok != token.ASSIGN {
		em.resolve(lhs)
		cur := em.load(lhs)
		switch tok {
		case token.INC:
			val = cur + " + 1"
		case token.DEC:
			val = cur + " - 1"
		default:
			val = cur + " " + strings.TrimSuffix(tok.String(), "=") + " (" + val + ")"
		}
	}
	switch l := lhs.(type) {
	case *ast.Ident:
		if em.an.kindOf(l) == kAtomic {
			em.line("%s.PlainStore(g, %s)", l.Name, val)
			return
		}
		em.line("%s.Store(g, %s)", l.Name, val)
	case *ast.SelectorExpr:
		switch fk, _ := em.cellField(l); fk {
		case kCell:
			em.line("%s.%s.Store(g, %s)", em.exprStr(l.X), l.Sel.Name, val)
		case kAtomic:
			em.line("%s.%s.PlainStore(g, %s)", em.exprStr(l.X), l.Sel.Name, val)
		default:
			em.fail(l.Pos(), "cannot reassign cellified field %s", l.Sel.Name)
		}
	case *ast.StarExpr:
		em.line("%s.Store(g, %s)", em.exprStr(l.X), val)
	case *ast.IndexExpr:
		if em.exprKind(l.X) == kMap {
			em.line("%s.Put(g, %s, %s)", em.baseObjExpr(l.X), em.exprStr(l.Index), val)
			return
		}
		em.line("%s.Set(g, %s, %s)", em.baseObjExpr(l.X), em.exprStr(l.Index), val)
	}
}

// native emits a write of a Go lvalue of the generated program.
func (em *emitter) native(target string, tok token.Token, val string) {
	switch tok {
	case token.ASSIGN:
		em.line("%s = %s", target, val)
	case token.INC, token.DEC:
		em.line("%s%s", target, tok)
	default:
		em.line("%s %s %s", target, tok, val)
	}
}

// lvalue renders a location the generated program holds in a Go
// variable, which reads and writes alike; a coalesced cell is marked
// for its run's trailing store.
func (em *emitter) lvalue(lhs ast.Expr) string {
	if id, ok := lhs.(*ast.Ident); ok {
		if v := em.an.varOf(id); v != nil {
			if _, coalesced := em.subst[v]; coalesced {
				em.substDirty[v] = true
			}
		}
	}
	return em.exprStr(lhs)
}

// held reports whether the generated program keeps location e in a
// modeled holder rather than a Go variable: a cell, an atomic, a cell
// pointer's target, a cellified field, an element of a modeled map or
// slice, or a part of a held value.
func (em *emitter) held(e ast.Expr) bool {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		_, coalesced := em.subst[em.an.varOf(x)]
		k := em.an.kindOf(x)
		return k == kAtomic || k == kCell && !coalesced
	case *ast.SelectorExpr:
		_, cell := em.cellField(x)
		return cell || em.heldBase(x) != nil
	case *ast.IndexExpr:
		k := em.exprKind(x.X)
		return k == kMap || k == kSlice || em.heldBase(x) != nil
	case *ast.StarExpr:
		return em.isCellPtr(x.X)
	}
	return false
}

// heldBase returns the struct or array value that e is a field or
// element of, when that value is held (see held) rather than reached
// through a pointer; otherwise nil. Writing such a part
// read-modify-writes the value.
func (em *emitter) heldBase(e ast.Expr) ast.Expr {
	var base ast.Expr
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if _, cell := em.cellField(x); cell {
			return nil
		}
		base = x.X
	case *ast.IndexExpr:
		if _, arr := em.typeOf(x.X).(*types.Array); !arr {
			return nil
		}
		base = x.X
	default:
		return nil
	}
	if _, ptr := em.typeOf(base).(*types.Pointer); ptr || !em.held(base) {
		return nil
	}
	return unparen(base)
}

// typeOf returns the underlying type of e, or nil.
func (em *emitter) typeOf(e ast.Expr) types.Type {
	if t := em.an.info.TypeOf(e); t != nil {
		return t.Underlying()
	}
	return nil
}

// resolve evaluates the key or index of a modeled map or slice element
// into a temp, once, so a location that is read and then written
// evaluates it once. It resolves the base of a held part the same way.
func (em *emitter) resolve(e ast.Expr) {
	e = unparen(e)
	if base := em.heldBase(e); base != nil {
		em.resolve(base)
	}
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return
	}
	prefix := map[varKind]string{kMap: "k", kSlice: "i"}[em.exprKind(ix.X)]
	if _, done := em.replaced[ix.Index]; prefix == "" || done {
		return
	}
	em.hoistInner(ix.Index)
	t := em.tmp(prefix)
	em.line("%s := %s", t, em.exprStr(ix.Index))
	em.replaced[ix.Index] = t
}

// load renders the current value of a resolved location by the rules
// of any read (a map read is hoisted into a temp).
func (em *emitter) load(e ast.Expr) string {
	em.hoistInner(e)
	return em.exprStr(e)
}

// unparen strips the parentheses around e.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// declStmt emits a local var/const declaration.
func (em *emitter) declStmt(s *ast.DeclStmt) {
	d := s.Decl.(*ast.GenDecl)
	if d.Tok == token.CONST {
		em.line("%s", em.origPrint(d))
		return
	}
	for _, sp := range d.Specs {
		spec := sp.(*ast.ValueSpec)
		for i, name := range spec.Names {
			v := em.an.varOf(name)
			if v == nil {
				continue
			}
			var init ast.Expr
			if i < len(spec.Values) {
				init = spec.Values[i]
			}
			em.emitCellInit(name.Name, v, em.an.kinds[v], init, token.DEFINE)
		}
	}
}

// emitCellInit declares-or-assigns one variable's representation with
// an optional initializer expression.
func (em *emitter) emitCellInit(name string, v *types.Var, kind varKind, init ast.Expr, tok token.Token) {
	if init != nil {
		em.hoistInner(init)
	}
	switch kind = declKind(kind, v.Type()); kind {
	case kPlain:
		if tok == token.DEFINE {
			if init != nil {
				em.line("var %s %s = %s", name, em.goType(v.Type()), em.exprStr(init))
			} else {
				em.line("var %s %s", name, em.goType(v.Type()))
			}
		} else {
			if init != nil {
				em.line("%s = %s", name, em.exprStr(init))
			}
		}
	case kCell:
		if init != nil {
			em.defineOrAssign(tok, name, fmt.Sprintf("sched.NewVarOf[%s](g, %q, %s)", em.goType(v.Type()), name, em.exprStr(init)))
		} else {
			em.defineOrAssign(tok, name, fmt.Sprintf("sched.NewVar[%s](g, %q)", em.goType(v.Type()), name))
		}
	case kAtomic:
		em.defineOrAssign(tok, name, fmt.Sprintf("sched.NewAtomic(g, %q)", name))
		if init != nil {
			em.line("%s.PlainStore(g, %s)", name, em.exprStr(init))
		}
	case kMutex, kRW, kWG, kOnce:
		em.defineOrAssign(tok, name, fmt.Sprintf("sched.New%s(g, %q)", syncTypes[kind], name))
	case kChan:
		ct := v.Type().Underlying().(*types.Chan)
		if init == nil {
			if tok == token.DEFINE {
				em.line("var %s *sched.Chan[%s]", name, em.goType(ct.Elem()))
			}
			return
		}
		call, ok := init.(*ast.CallExpr)
		if !ok {
			em.fail(init.Pos(), "channel initializer must be a call")
		}
		if !em.isMake(call) {
			// A channel's generated value is its holder, so the call's
			// result is used as is, as in ch := newChan().
			em.defineOrAssign(tok, name, em.exprStr(call))
			return
		}
		capStr := "0"
		if len(call.Args) > 1 {
			capStr = em.exprStr(call.Args[1])
		}
		em.defineOrAssign(tok, name, fmt.Sprintf("sched.NewChan[%s](g, %q, %s)", em.goType(ct.Elem()), name, capStr))
	case kSlice:
		st := v.Type().Underlying().(*types.Slice)
		switch init := init.(type) {
		case nil:
			em.defineOrAssign(tok, name, fmt.Sprintf("sched.NewSlice[%s](g, %q, 0)", em.goType(st.Elem()), name))
		case *ast.CompositeLit:
			var elems []string
			for _, e := range init.Elts {
				elems = append(elems, em.exprStr(e))
			}
			em.defineOrAssign(tok, name, fmt.Sprintf("sched.NewSliceOf[%s](g, %q, []%s{\n%s,\n})",
				em.goType(st.Elem()), name, em.goType(st.Elem()), strings.Join(elems, ",\n")))
		case *ast.CallExpr:
			if !em.isMake(init) {
				em.defineOrAssign(tok, name, fmt.Sprintf("sched.NewSliceOf[%s](g, %q, %s)", em.goType(st.Elem()), name, em.exprStr(init)))
				return
			}
			lenStr := "0"
			if len(init.Args) > 1 {
				lenStr = em.exprStr(init.Args[1])
			}
			em.defineOrAssign(tok, name, fmt.Sprintf("sched.NewSlice[%s](g, %q, %s)", em.goType(st.Elem()), name, lenStr))
		default:
			em.fail(init.Pos(), "unsupported shared slice initializer")
		}
	case kMap:
		mt := v.Type().Underlying().(*types.Map)
		em.defineOrAssign(tok, name, fmt.Sprintf("sched.NewMap[%s, %s](g, %q)", em.goType(mt.Key()), em.goType(mt.Elem()), name))
		if cl, ok := init.(*ast.CompositeLit); ok {
			for _, e := range cl.Elts {
				kv := e.(*ast.KeyValueExpr)
				em.line("%s.Put(g, %s, %s)", name, em.exprStr(kv.Key), em.exprStr(kv.Value))
			}
		} else if init != nil && !em.isMake(init) {
			em.fail(init.Pos(), "shared map %s: only make/literal initialization supported", name)
		}
	}
}

// goStmt emits a goroutine spawn: arguments are hoisted to temps
// (evaluated at the go statement, as in Go), then the call runs inside
// a modeled goroutine.
func (em *emitter) goStmt(s *ast.GoStmt) {
	call := s.Call
	pos := em.an.fset.Position(s.Pos())
	file := filepath.Base(pos.Filename)

	var name string
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	default:
		name = fmt.Sprintf("%s.func%d", em.curFunc, em.anonN[em.curFunc]+1)
		em.anonN[em.curFunc]++
	}

	temps := make([]string, len(call.Args))
	for i, a := range call.Args {
		em.hoistInner(a)
		temps[i] = em.tmp("a")
		em.line("%s := %s", temps[i], em.exprStr(a))
	}

	em.line("g.Go(%q, func(g *sched.G) {", name)
	em.ind++
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		em.line("g.Push(%q, %q, %d)", em.an.pkg.Name()+"."+name, file, pos.Line)
		em.line("defer g.Pop()")
		// Bind parameters to the hoisted argument temps, then inline
		// the body.
		idx := 0
		for _, f := range lit.Type.Params.List {
			for _, pn := range f.Names {
				if pn.Name == "_" {
					em.line("_ = %s", temps[idx])
				} else {
					pv, _ := em.an.info.Defs[pn].(*types.Var)
					em.promoteLocal(pv, pn.Name, temps[idx])
				}
				idx++
			}
		}
		prev := em.curFunc
		em.curFunc = name
		em.stmtList(lit.Body.List)
		em.curFunc = prev
	} else {
		em.line("%s", em.callWith(call, temps))
	}
	em.ind--
	em.line("})")
}

// callWith renders call with pre-evaluated argument temps.
func (em *emitter) callWith(call *ast.CallExpr, temps []string) string {
	saved := em.replaced
	em.replaced = map[ast.Expr]string{}
	for i, a := range call.Args {
		em.replaced[a] = temps[i]
	}
	for k, v := range saved {
		em.replaced[k] = v
	}
	out := em.exprStr(call)
	em.replaced = saved
	return out
}

// deferStmt emits a defer of the rewritten call.
func (em *emitter) deferStmt(s *ast.DeferStmt) {
	if lit, ok := s.Call.Fun.(*ast.FuncLit); ok && len(s.Call.Args) == 0 {
		em.line("defer func() {")
		em.ind++
		em.stmtList(lit.Body.List)
		em.ind--
		em.line("}()")
		return
	}
	em.line("defer %s", em.exprStr(s.Call))
}

// returnStmt emits a return, expanding bare returns of named results.
func (em *emitter) returnStmt(s *ast.ReturnStmt) {
	if len(s.Results) == 0 {
		if len(em.curResults) == 0 {
			em.line("return")
			return
		}
		var vals []string
		for _, r := range em.curResults {
			switch r.kind {
			case kCell:
				vals = append(vals, fmt.Sprintf("%s.Load(g)", r.name))
			default:
				vals = append(vals, r.name)
			}
		}
		em.line("return %s", strings.Join(vals, ", "))
		return
	}
	for _, r := range s.Results {
		em.hoistInner(r)
	}
	var vals []string
	for _, r := range s.Results {
		vals = append(vals, em.exprStr(r))
	}
	em.line("return %s", strings.Join(vals, ", "))
}

// ifStmt emits an if/else chain; inits and hoists go in a wrapper
// block so their names scope correctly.
func (em *emitter) ifStmt(s *ast.IfStmt) {
	needsWrap := s.Init != nil || em.needsHoist(s.Cond)
	if needsWrap {
		em.line("{")
		em.ind++
		if s.Init != nil {
			em.stmt(s.Init)
		}
		em.hoistInner(s.Cond)
	}
	em.line("if %s {", em.exprStr(s.Cond))
	em.ind++
	em.stmtList(s.Body.List)
	em.ind--
	if s.Else != nil {
		em.line("} else {")
		em.ind++
		if eb, ok := s.Else.(*ast.BlockStmt); ok {
			em.stmtList(eb.List)
		} else {
			em.stmt(s.Else)
		}
		em.ind--
	}
	em.line("}")
	if needsWrap {
		em.ind--
		em.line("}")
	}
}

// forStmt emits a for loop. An instrumented post clause moves to the
// end of the body (rejected if the body contains a continue).
func (em *emitter) forStmt(s *ast.ForStmt) {
	if s.Cond != nil && em.needsHoist(s.Cond) {
		em.fail(s.Cond.Pos(), "channel/map operations in a loop condition are unsupported")
	}
	postInBody := s.Post != nil && em.interesting(s.Post)
	if postInBody && hasLoopContinue(s.Body) {
		em.fail(s.Post.Pos(), "continue with an instrumented loop post statement is unsupported")
	}
	wrap := s.Init != nil && em.interesting(s.Init)
	if wrap {
		em.line("{")
		em.ind++
		em.stmt(s.Init)
	}
	header := "for "
	if !wrap && s.Init != nil {
		header += em.origPrint(s.Init) + "; "
	} else if s.Post != nil && !postInBody {
		header += "; "
	}
	if s.Cond != nil {
		header += em.exprStr(s.Cond)
	}
	if s.Post != nil && !postInBody {
		header += "; " + em.origPrint(s.Post)
	} else if !wrap && s.Init != nil {
		header += ";"
	}
	em.line("%s {", strings.TrimRight(header, " "))
	em.ind++
	em.stmtList(s.Body.List)
	if postInBody {
		em.stmt(s.Post)
	}
	em.ind--
	em.line("}")
	if wrap {
		em.ind--
		em.line("}")
	}
}

// hasLoopContinue reports whether body contains a continue binding to
// this loop (ignores nested loops and function literals).
func hasLoopContinue(body *ast.BlockStmt) bool {
	return contains(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
			return true
		}
		return false
	}, func(n ast.Node) bool {
		br, ok := n.(*ast.BranchStmt)
		return ok && br.Tok == token.CONTINUE
	})
}
