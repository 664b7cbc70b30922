package instrument

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/printer"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// emitErr carries a positioned subset-violation error up through the
// recursive emitter via panic; program() recovers it.
type emitErr struct{ err error }

// resultVar is one (possibly named) result of the function being
// emitted, for bare-return lowering.
type resultVar struct {
	name string
	v    *types.Var
	kind varKind
}

// emitter generates the program function from the analyzed subject.
type emitter struct {
	an   *analysis
	opts Options
	buf  bytes.Buffer
	ind  int
	tmpN int
	// imports collects passthrough packages actually referenced.
	imports map[string]bool
	// replaced maps hoisted expressions (channel receives, map reads)
	// to the temp name holding their value, per statement.
	replaced map[ast.Expr]string
	// subst maps coalesced cell variables to their run-local temp.
	subst map[*types.Var]string
	// substDirty marks coalesced vars with pending stores.
	substDirty map[*types.Var]bool
	// curFunc is the qualified name of the function being emitted.
	curFunc string
	// curResults describes the current function's named results, or nil.
	curResults []resultVar
	// anonN numbers anonymous goroutines per enclosing function.
	anonN map[string]int
}

func (em *emitter) fail(pos token.Pos, format string, args ...any) {
	panic(emitErr{errAt(em.an.fset, pos, format, args...)})
}

func (em *emitter) p(format string, args ...any) {
	fmt.Fprintf(&em.buf, format, args...)
}

// line writes one indented line.
func (em *emitter) line(format string, args ...any) {
	em.buf.WriteString(strings.Repeat("\t", em.ind))
	fmt.Fprintf(&em.buf, format, args...)
	em.buf.WriteByte('\n')
}

func (em *emitter) tmp(prefix string) string {
	em.tmpN++
	return fmt.Sprintf("_%s%d", prefix, em.tmpN-1)
}

// origPrint renders a node verbatim from the parsed AST.
func (em *emitter) origPrint(n ast.Node) string {
	// Verbatim fragments can still reference passthrough packages;
	// record their imports.
	ast.Inspect(n, func(c ast.Node) bool {
		if id, ok := c.(*ast.Ident); ok {
			if pn, ok := em.an.info.Uses[id].(*types.PkgName); ok {
				em.imports[pn.Imported().Path()] = true
			}
		}
		return true
	})
	var b bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces | printer.TabIndent, Tabwidth: 8}
	if err := cfg.Fprint(&b, em.an.fset, n); err != nil {
		em.fail(n.Pos(), "print: %v", err)
	}
	return b.String()
}

// program emits the whole generated file.
func (em *emitter) program() (src []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ee, ok := r.(emitErr); ok {
				src, err = nil, ee.err
				return
			}
			panic(r)
		}
	}()
	em.imports = map[string]bool{}
	em.subst = map[*types.Var]string{}
	em.substDirty = map[*types.Var]bool{}
	em.anonN = map[string]int{}

	entry := em.findEntry()

	// Emit the function body first so the import set is known.
	em.ind = 1
	em.line("g.StableIDs()")
	em.emitTypes()
	em.emitConsts()
	em.emitDeclsBlock()
	em.emitFuncAssignments()
	em.emitPkgVarInits()
	em.line("%s(g)", entry.Name.Name)
	body := em.buf.String()

	em.buf.Reset()
	em.ind = 0
	em.p("// Code generated by raceinstrument; DO NOT EDIT.\n")
	em.p("// Subject package: %s; entry: %s.\n\n", em.an.pkg.Name(), em.opts.Entry)
	em.p("package progs\n\n")
	var imps []string
	for imp := range em.imports {
		imps = append(imps, imp)
	}
	sort.Strings(imps)
	em.p("import (\n")
	for _, imp := range imps {
		em.p("\t%q\n", imp)
	}
	em.p("\n\t\"gorace/internal/sched\"\n)\n\n")
	em.p("// Prog%s runs the instrumented %q package under the modeled\n", em.opts.ProgName, em.an.pkg.Name())
	em.p("// scheduler, entering at %s.\n", em.opts.Entry)
	em.p("func Prog%s(g *sched.G) {\n", em.opts.ProgName)
	em.buf.WriteString(body)
	em.p("}\n")

	out, ferr := format.Source(em.buf.Bytes())
	if ferr != nil {
		return em.buf.Bytes(), fmt.Errorf("instrument: generated code does not format: %v", ferr)
	}
	return out, nil
}

func (em *emitter) findEntry() *ast.FuncDecl {
	for _, f := range em.an.funcs {
		if f.Name.Name == em.opts.Entry {
			if f.Type.Params.NumFields() != 0 || f.Type.Results.NumFields() != 0 {
				em.fail(f.Pos(), "entry %s must take no parameters and return nothing", em.opts.Entry)
			}
			return f
		}
	}
	panic(emitErr{fmt.Errorf("instrument: entry function %q not found", em.opts.Entry)})
}

// emitConsts passes constant declarations through verbatim.
func (em *emitter) emitConsts() {
	for _, d := range em.an.constDecls {
		for _, ln := range strings.Split(em.origPrint(d), "\n") {
			em.line("%s", ln)
		}
	}
}

// emitTypes emits type declarations: plain ones verbatim, cellified
// structs with per-field cell holders.
func (em *emitter) emitTypes() {
	for _, d := range em.an.typeDecls {
		for _, s := range d.Specs {
			ts := s.(*ast.TypeSpec)
			obj, _ := em.an.info.Defs[ts.Name].(*types.TypeName)
			if si, ok := em.an.cellStructs[obj]; ok {
				em.line("type %s struct {", si.name)
				em.ind++
				for _, fv := range si.fields {
					em.line("%s %s", fv.Name(), em.holderType(si.kinds[fv.Name()], fv.Type()))
				}
				em.ind--
				em.line("}")
				continue
			}
			for _, ln := range strings.Split("type "+em.origPrint(ts), "\n") {
				em.line("%s", ln)
			}
		}
	}
}

// emitDeclsBlock forward-declares package-var holders, function
// variables, and lifted method variables, so bodies and initializers
// can reference each other regardless of order.
func (em *emitter) emitDeclsBlock() {
	// Every name is also blank-assigned, to silence "declared and not
	// used" for subject declarations the program never reads.
	var names []string
	for _, spec := range em.an.pkgVarSpecs {
		for _, name := range spec.Names {
			names = append(names, name.Name)
			if v := em.an.varOf(name); v != nil {
				em.line("var %s %s", name.Name, em.holderType(em.an.kinds[v], v.Type()))
			}
		}
	}
	// g is named and Go cannot mix named and unnamed parameters, so
	// the rest are blank.
	blank := func(int, *types.Var) string { return "_" }
	for _, f := range em.an.funcs {
		names = append(names, f.Name.Name)
		em.line("var %s %s", f.Name.Name, em.signature(em.sigOf(f), []string{"g *sched.G"}, blank, false))
	}
	for _, m := range em.an.methods {
		sig := em.sigOf(m)
		recv := sig.Recv().Type()
		name := em.liftedName(m.Pos(), recv, m.Name.Name)
		names = append(names, name)
		em.line("var %s %s", name, em.signature(sig, []string{"g *sched.G", "_ " + em.goType(recv)}, blank, false))
	}
	for _, n := range names {
		em.line("_ = %s", n)
	}
}

// liftedName is the closure-variable name T_M of method M on a
// receiver of defined type T or *T.
func (em *emitter) liftedName(pos token.Pos, recv types.Type, method string) string {
	tn := namedObj(recv)
	if tn == nil {
		em.fail(pos, "method %s on unsupported receiver type", method)
	}
	return tn.Name() + "_" + method
}

// emitFuncAssignments assigns every lifted method and function body.
func (em *emitter) emitFuncAssignments() {
	for _, m := range em.an.methods {
		em.emitFuncBody(m)
	}
	for _, f := range em.an.funcs {
		em.emitFuncBody(f)
	}
}

// sigOf returns the signature of a declared function or method.
func (em *emitter) sigOf(f *ast.FuncDecl) *types.Signature {
	return em.an.info.Defs[f.Name].Type().(*types.Signature)
}

// emitFuncBody emits `name = func(g *sched.G, ...) ... { ... }`; a
// method is lifted to a closure variable taking its receiver after g.
func (em *emitter) emitFuncBody(f *ast.FuncDecl) {
	sig := em.sigOf(f)
	name, lead := f.Name.Name, []string{"g *sched.G"}
	if recv := sig.Recv(); recv != nil {
		name = em.liftedName(f.Pos(), recv.Type(), name)
		rname := recv.Name()
		if rname == "" || rname == "_" {
			rname = "_recv"
		}
		lead = append(lead, rname+" "+em.goType(recv.Type()))
	}
	em.line("%s = %s {", name, em.signature(sig, lead, func(i int, p *types.Var) string {
		if pname := em.paramName(p); pname != "" && pname != "_" {
			return pname
		}
		return fmt.Sprintf("_p%d", i)
	}, false))
	em.ind++

	pos := em.an.fset.Position(f.Pos())
	em.line("g.Push(%q, %q, %d)", em.an.pkg.Name()+"."+name, filepath.Base(pos.Filename), pos.Line)
	em.line("defer g.Pop()")

	prevFunc, prevResults := em.curFunc, em.curResults
	em.curFunc, em.curResults = name, em.namedResults(sig)
	em.emitSharedParamPrologue(sig)
	em.emitNamedResultPrologue()
	em.stmtList(f.Body.List)
	em.curFunc, em.curResults = prevFunc, prevResults

	em.ind--
	em.line("}")
}

// namedResults returns the function's named results (nil when results
// are unnamed), so bare returns can be lowered.
func (em *emitter) namedResults(sig *types.Signature) []resultVar {
	n := sig.Results().Len()
	if n == 0 {
		return nil
	}
	var out []resultVar
	for i := 0; i < n; i++ {
		rv := sig.Results().At(i)
		if rv.Name() == "" {
			return nil
		}
		out = append(out, resultVar{name: rv.Name(), v: rv, kind: em.an.kinds[rv]})
	}
	return out
}

// emitSharedParamPrologue declares captured parameters as holders, so
// goroutine closures share them through the model.
func (em *emitter) emitSharedParamPrologue(sig *types.Signature) {
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		em.promoteLocal(p, p.Name(), em.paramName(p))
	}
}

// paramName is the name parameter p takes in a generated signature. A
// body cannot redeclare its own parameter, so one that the prologue
// promotes to a holder is renamed, and the holder takes its name.
func (em *emitter) paramName(p *types.Var) string {
	switch em.an.kinds[p] {
	case kCell, kSlice, kAtomic, kMap:
		return "_" + p.Name()
	}
	return p.Name()
}

// emitNamedResultPrologue declares named result variables as locals
// (cells when shared — the captured-named-return shape).
func (em *emitter) emitNamedResultPrologue() {
	for _, r := range em.curResults {
		switch declKind(r.kind, r.v.Type()) {
		case kPlain:
			em.line("var %s %s", r.name, em.goType(r.v.Type()))
		case kCell:
			em.line("%s := sched.NewVar[%s](g, %q)", r.name, em.goType(r.v.Type()), r.name)
		default:
			em.fail(r.v.Pos(), "named result %s: unsupported shared kind", r.name)
		}
		em.line("_ = %s", r.name)
	}
}

// promoteLocal declares name as v's generated representation,
// initialized from from, the expression holding its plain Go value: a
// holder when the analysis marked v shared, else a plain variable
// (nothing when name is already from).
func (em *emitter) promoteLocal(v *types.Var, name, from string) {
	if name == "" || name == "_" {
		return
	}
	switch em.an.kinds[v] {
	case kCell:
		em.line("%s := sched.NewVarOf[%s](g, %q, %s)", name, em.goType(v.Type()), name, from)
	case kSlice:
		elem := v.Type().Underlying().(*types.Slice).Elem()
		em.line("%s := sched.NewSliceOf[%s](g, %q, %s)", name, em.goType(elem), name, from)
	case kAtomic:
		t := em.tmp("a")
		em.line("%s := sched.NewAtomic(g, %q)", t, name)
		em.line("%s.PlainStore(g, %s)", t, from)
		em.line("%s := %s", name, t)
	case kMap:
		mt := v.Type().Underlying().(*types.Map)
		t := em.tmp("m")
		em.line("%s := sched.NewMap[%s, %s](g, %q)", t, em.goType(mt.Key()), em.goType(mt.Elem()), name)
		k, val := em.tmp("k"), em.tmp("v")
		em.line("for %s, %s := range %s {", k, val, from)
		em.line("\t%s.Put(g, %s, %s)", t, k, val)
		em.line("}")
		em.line("%s := %s", name, t)
	default:
		if name != from {
			em.line("%s := %s", name, from)
		}
	}
}

// emitPkgVarInits creates the package-level cells in declaration
// order, after functions are assigned (initializers may call them).
func (em *emitter) emitPkgVarInits() {
	for _, spec := range em.an.pkgVarSpecs {
		for i, name := range spec.Names {
			v := em.an.varOf(name)
			if v == nil {
				continue
			}
			var init ast.Expr
			if i < len(spec.Values) {
				init = spec.Values[i]
			} else if len(spec.Values) == 1 && len(spec.Names) > 1 {
				em.fail(spec.Pos(), "multi-value package var initializer unsupported")
			}
			em.emitCellInit(name.Name, v, em.an.kinds[v], init, token.ASSIGN)
		}
	}
}

// stmtList emits a statement list, applying the coalescing pass when
// enabled: within each run of simple statements, redundant adjacent
// accesses to the same cell collapse into one load and one store.
func (em *emitter) stmtList(list []ast.Stmt) {
	if !em.opts.Coalesce {
		for _, s := range list {
			em.stmt(s)
		}
		return
	}
	runs := em.planRuns(list)
	for _, r := range runs {
		if len(r.plans) == 0 {
			for _, s := range r.stmts {
				em.stmt(s)
			}
			continue
		}
		for _, pl := range r.plans {
			em.subst[pl.v] = pl.temp
			if pl.needLoad {
				em.line("%s := %s.Load(g)", pl.temp, pl.v.Name())
			} else {
				em.line("var %s %s", pl.temp, em.goType(pl.v.Type()))
				em.line("_ = %s", pl.temp)
			}
		}
		for _, s := range r.stmts {
			em.stmt(s)
		}
		for _, pl := range r.plans {
			if em.substDirty[pl.v] {
				em.line("%s.Store(g, %s)", pl.v.Name(), pl.temp)
			}
			delete(em.subst, pl.v)
			delete(em.substDirty, pl.v)
		}
	}
}

// block emits `{ ... }`.
func (em *emitter) block(b *ast.BlockStmt) {
	em.line("{")
	em.ind++
	em.stmtList(b.List)
	em.ind--
	em.line("}")
}
