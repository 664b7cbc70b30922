package instrument

import (
	"go/ast"
	"go/token"
	"go/types"
)

// varKind says how one variable (or struct field) is represented in
// the generated program.
type varKind int

const (
	kPlain  varKind = iota // untouched Go
	kCell                  // *sched.Var[T]
	kAtomic                // *sched.Atomic (sync/atomic target)
	kMutex                 // *sched.Mutex
	kRW                    // *sched.RWMutex
	kWG                    // *sched.WaitGroup
	kOnce                  // *sched.Once
	kChan                  // *sched.Chan[T]
	kMap                   // *sched.Map[K,V]
	kSlice                 // *sched.Slice[T]
)

// structInfo describes a cellified struct type: one whose fields
// become individual cells because instances are mutated through
// pointer receivers (or hold sync primitives).
type structInfo struct {
	name   string
	fields []*types.Var
	kinds  map[string]varKind
}

// analysis is everything the emitter needs to know about the subject
// package: which variables are shared (and as what kind), which struct
// types are cellified, and the declarations in deterministic order.
type analysis struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info

	shared      map[*types.Var]bool
	kinds       map[*types.Var]varKind
	cellStructs map[*types.TypeName]*structInfo

	typeDecls   []*ast.GenDecl   // plain type declarations, in order
	constDecls  []*ast.GenDecl   // const declarations, in order
	pkgVarSpecs []*ast.ValueSpec // package-level var specs, in order
	funcs       []*ast.FuncDecl  // top-level functions, in order
	methods     []*ast.FuncDecl  // methods, in order
}

// analyze runs the shared-state analysis over the type-checked files.
func analyze(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info) (*analysis, error) {
	an := &analysis{
		fset: fset, files: files, pkg: pkg, info: info,
		shared:      map[*types.Var]bool{},
		kinds:       map[*types.Var]varKind{},
		cellStructs: map[*types.TypeName]*structInfo{},
	}
	if err := an.collectDecls(); err != nil {
		return nil, err
	}
	an.findShared()
	an.findCellStructs()
	an.assignKinds()
	return an, nil
}

// collectDecls gathers declarations in source order and rejects
// generic declarations up front.
func (an *analysis) collectDecls() error {
	for _, f := range an.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				switch d.Tok {
				case token.TYPE:
					for _, s := range d.Specs {
						ts := s.(*ast.TypeSpec)
						if ts.TypeParams != nil {
							return errAt(an.fset, ts.Pos(), "generic type %s unsupported", ts.Name.Name)
						}
					}
					an.typeDecls = append(an.typeDecls, d)
				case token.CONST:
					an.constDecls = append(an.constDecls, d)
				case token.VAR:
					for _, s := range d.Specs {
						an.pkgVarSpecs = append(an.pkgVarSpecs, s.(*ast.ValueSpec))
					}
				}
			case *ast.FuncDecl:
				if d.Type.TypeParams != nil {
					return errAt(an.fset, d.Pos(), "generic function %s unsupported", d.Name.Name)
				}
				if d.Body == nil {
					return errAt(an.fset, d.Pos(), "function %s has no body", d.Name.Name)
				}
				if d.Recv != nil {
					an.methods = append(an.methods, d)
				} else {
					an.funcs = append(an.funcs, d)
				}
			}
		}
	}
	return nil
}

// findShared marks package-level variables, address-taken locals, and
// locals captured by function literals as shared.
func (an *analysis) findShared() {
	for _, spec := range an.pkgVarSpecs {
		for _, name := range spec.Names {
			if v, ok := an.info.Defs[name].(*types.Var); ok {
				an.shared[v] = true
			}
		}
	}

	// declFunc maps each local variable to the function node (FuncDecl
	// or FuncLit) whose body declares it; a use from a deeper FuncLit
	// is a capture. Pass 1 records declarations, pass 2 checks uses
	// and address-of — both with an explicit function-node stack.
	declFunc := map[*types.Var]ast.Node{}
	for _, f := range an.files {
		an.walkWithFuncStack(f, func(n ast.Node, stack []ast.Node) {
			if id, ok := n.(*ast.Ident); ok && len(stack) > 0 {
				if v, ok := an.info.Defs[id].(*types.Var); ok && !v.IsField() {
					declFunc[v] = stackTop(stack)
				}
			}
		})
	}
	for _, f := range an.files {
		an.walkWithFuncStack(f, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.Ident:
				if v, ok := an.info.Uses[n].(*types.Var); ok && !v.IsField() {
					if df, ok := declFunc[v]; ok && len(stack) > 0 && stackTop(stack) != df {
						an.shared[v] = true
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if id, ok := n.X.(*ast.Ident); ok {
						if v, ok := an.info.Uses[id].(*types.Var); ok && !v.IsField() {
							if !isImportedStruct(v.Type()) {
								an.shared[v] = true
							}
						}
					}
				}
			}
		})
	}
}

// walkWithFuncStack walks the tree invoking fn on every node with the
// current stack of enclosing function nodes (FuncDecl / FuncLit).
func (an *analysis) walkWithFuncStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		push := isFuncNode(n)
		if push {
			stack = append(stack, n)
		}
		fn(n, stack)
		children(n, walk)
		if push {
			stack = stack[:len(stack)-1]
		}
	}
	walk(root)
}

func isFuncNode(n ast.Node) bool {
	switch n.(type) {
	case *ast.FuncDecl, *ast.FuncLit:
		return true
	}
	return false
}

func stackTop(s []ast.Node) ast.Node { return s[len(s)-1] }

// children invokes fn on each direct child node of n.
func children(n ast.Node, fn func(ast.Node)) {
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		if c != nil {
			fn(c)
		}
		return false
	})
}

// isImportedStruct reports whether t names a struct from another
// package (e.g. strings.Builder): such values stay plain — the
// rewriter cannot cellify types it does not own.
func isImportedStruct(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() != ""
}

// findCellStructs marks locally-defined struct types whose instances
// are mutated through pointer receivers — or which embed sync
// primitives — as cellified: each field becomes its own cell.
func (an *analysis) findCellStructs() {
	hasPtrMethod := map[*types.TypeName]bool{}
	for _, m := range an.methods {
		t := an.recvType(m)
		if _, isPtr := t.(*types.Pointer); isPtr {
			hasPtrMethod[namedObj(t)] = true
		}
	}
	for _, d := range an.typeDecls {
		for _, s := range d.Specs {
			ts := s.(*ast.TypeSpec)
			obj, ok := an.info.Defs[ts.Name].(*types.TypeName)
			if !ok {
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			cellify := hasPtrMethod[obj]
			for i := 0; i < st.NumFields(); i++ {
				if k := syncKind(st.Field(i).Type()); k != kPlain {
					cellify = true
				}
			}
			if !cellify {
				continue
			}
			si := &structInfo{name: obj.Name(), kinds: map[string]varKind{}}
			for i := 0; i < st.NumFields(); i++ {
				fv := st.Field(i)
				si.fields = append(si.fields, fv)
				si.kinds[fv.Name()] = kindForType(fv.Type(), true)
			}
			an.cellStructs[obj] = si
		}
	}
}

// recvType returns the method's receiver type.
func (an *analysis) recvType(m *ast.FuncDecl) types.Type {
	if len(m.Recv.List) == 0 {
		return nil
	}
	return an.info.Types[m.Recv.List[0].Type].Type
}

// namedObj resolves t, through at most one pointer, to the name of its
// defined type, or nil.
func namedObj(t types.Type) *types.TypeName {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// syncTypes names the sched type that models each sync kind. The
// generated program holds every sync value as a pointer to one, made
// by sched.New<name>.
var syncTypes = map[varKind]string{kMutex: "Mutex", kRW: "RWMutex", kWG: "WaitGroup", kOnce: "Once"}

// syncKind classifies a sync package type or a pointer to one; any
// other type is kPlain.
func syncKind(t types.Type) varKind {
	tn := namedObj(t)
	if tn == nil || tn.Pkg() == nil || tn.Pkg().Path() != "sync" {
		return kPlain
	}
	for k, name := range syncTypes {
		if name == tn.Name() {
			return k
		}
	}
	return kPlain
}

// declKind is the kind a declaration of a variable of type t builds.
// A pointer to a sync value aliases a primitive made elsewhere, so it
// is declared like a plain variable.
func declKind(kind varKind, t types.Type) varKind {
	if _, ptr := t.(*types.Pointer); ptr && syncTypes[kind] != "" {
		return kPlain
	}
	return kind
}

// kindForType maps a variable's type (plus its sharedness) to its
// generated representation.
func kindForType(t types.Type, shared bool) varKind {
	if k := syncKind(t); k != kPlain {
		return k
	}
	switch t.Underlying().(type) {
	case *types.Chan:
		return kChan // channels are scheduling primitives, always modeled
	}
	if !shared {
		return kPlain
	}
	switch t.Underlying().(type) {
	case *types.Map:
		return kMap
	case *types.Slice:
		return kSlice
	case *types.Pointer:
		return kPlain // pointers are plain holders of cell pointers
	}
	return kCell
}

// assignKinds computes each variable's kind and upgrades sync/atomic
// targets, variables and cellified fields alike, to kAtomic by
// scanning atomic.* call sites.
func (an *analysis) assignKinds() {
	for _, f := range an.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				// A use as an atomic target may precede the declaration.
				if v, ok := an.info.Defs[n].(*types.Var); ok && !v.IsField() && an.kinds[v] != kAtomic {
					an.kinds[v] = kindForType(v.Type(), an.shared[v])
				}
			case *ast.CallExpr:
				if pkgSel(an.info, n, "atomic") == "" || len(n.Args) == 0 {
					break
				}
				u, ok := n.Args[0].(*ast.UnaryExpr)
				if !ok || u.Op != token.AND {
					break
				}
				switch x := u.X.(type) {
				case *ast.Ident:
					if v, ok := an.info.Uses[x].(*types.Var); ok {
						an.shared[v] = true
						an.kinds[v] = kAtomic
					}
				case *ast.SelectorExpr:
					// A field of a cellified struct becomes its own atomic.
					if s, ok := an.info.Selections[x]; ok && s.Kind() == types.FieldVal {
						if si := an.cellStructOf(s.Recv()); si != nil {
							si.kinds[x.Sel.Name] = kAtomic
						}
					}
				}
			}
			return true
		})
	}
}

// pkgSel returns the selector name if call's callee is pkgName.Sel on
// the given imported package, else "".
func pkgSel(info *types.Info, call *ast.CallExpr, pkgName string) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	if pn.Imported().Name() != pkgName {
		return ""
	}
	return sel.Sel.Name
}

// kindOf returns the kind of the variable an identifier resolves to
// (kPlain when it is not a variable).
func (an *analysis) kindOf(id *ast.Ident) varKind {
	obj := an.info.Uses[id]
	if obj == nil {
		obj = an.info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return kPlain
	}
	return an.kinds[v]
}

// varOf resolves an identifier to its *types.Var, or nil.
func (an *analysis) varOf(id *ast.Ident) *types.Var {
	obj := an.info.Uses[id]
	if obj == nil {
		obj = an.info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}
