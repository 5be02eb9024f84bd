package analysis

import (
	"go/ast"
	"go/types"
)

// Poolreset guards the scratch-recycling invariant behind engine.RunOnLayout:
// any struct that travels through a sync.Pool and exposes a reset() method
// must assign every one of its fields in reset. The reset methods are
// hand-maintained field lists — add a field to the struct, forget the line
// in reset, and one run's state leaks into the next run's pooled scratch.
// That bug is invisible to tests that construct fresh state and only bites
// under a resident server's recycling, exactly where it is hardest to
// debug.
//
// Fields that are construction-time identity (set once, valid across runs)
// are annotated //grapevet:keep on their declaration.
var Poolreset = &Analyzer{
	Name: "poolreset",
	Doc: "every field of a sync.Pool-recycled struct with a reset() method must be " +
		"assigned in reset or carry //grapevet:keep on its declaration",
	Run: runPoolreset,
}

func runPoolreset(p *Pass) error {
	roots := pooledRoots(p)
	if len(roots) == 0 {
		return nil
	}

	// Pool-reachable structs: the pooled roots plus every same-package named
	// struct reachable through fields, pointers, slices, arrays and maps —
	// RunOnLayout pools a *runScratch whose fields hold the actual Contexts and
	// fold state, so reachability is the honest definition of "recycled".
	reach := map[*types.Named]bool{}
	var expand func(t types.Type)
	expand = func(t types.Type) {
		switch tt := t.(type) {
		case *types.Pointer:
			expand(tt.Elem())
		case *types.Slice:
			expand(tt.Elem())
		case *types.Array:
			expand(tt.Elem())
		case *types.Map:
			expand(tt.Elem())
		case *types.Named:
			if tt.Obj().Pkg() != p.Pkg.Types {
				return
			}
			orig := tt.Origin()
			if reach[orig] {
				return
			}
			st, ok := orig.Underlying().(*types.Struct)
			if !ok {
				return
			}
			reach[orig] = true
			for i := 0; i < st.NumFields(); i++ {
				expand(st.Field(i).Type())
			}
		}
	}
	for n := range roots {
		expand(n)
	}

	resets := resetMethods(p)
	for named := range reach {
		fd, ok := resets[named.Obj().Name()]
		if !ok {
			continue
		}
		st := named.Origin().Underlying().(*types.Struct)
		assigned := map[string]bool{}
		assignedFields(p, fd, assigned, map[string]bool{})
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if assigned[f.Name()] || p.SuppressedAt(f.Pos()) {
				continue
			}
			p.Reportf(fd.Name.Pos(), "pooled %s.reset does not assign field %q: a recycled scratch would leak the previous run's %s (reset it, or annotate the field //grapevet:keep <why>)",
				named.Obj().Name(), f.Name(), f.Name())
		}
	}
	return nil
}

// pooledRoots finds the named struct types that enter a sync.Pool in this
// package: arguments of Pool.Put, targets of type assertions on Pool.Get,
// and results of Pool.New functions.
func pooledRoots(p *Pass) map[*types.Named]bool {
	info := p.Pkg.Info
	roots := map[*types.Named]bool{}
	add := func(t types.Type) {
		if n := namedStructOf(t); n != nil && n.Obj().Pkg() == p.Pkg.Types {
			roots[n] = true
		}
	}
	isPoolSel := func(sel *ast.SelectorExpr, method string) bool {
		if sel.Sel.Name != method {
			return false
		}
		tv, ok := info.Types[sel.X]
		if !ok {
			return false
		}
		n := namedOf(tv.Type)
		return n != nil && n.Obj().Name() == "Pool" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync"
	}
	p.inspect(func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CallExpr:
			if sel, ok := nn.Fun.(*ast.SelectorExpr); ok && isPoolSel(sel, "Put") && len(nn.Args) == 1 {
				if tv, ok := info.Types[nn.Args[0]]; ok {
					add(tv.Type)
				}
			}
		case *ast.TypeAssertExpr:
			if call, ok := nn.X.(*ast.CallExpr); ok && nn.Type != nil {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && isPoolSel(sel, "Get") {
					if tv, ok := info.Types[nn.Type]; ok {
						add(tv.Type)
					}
				}
			}
		case *ast.AssignStmt:
			// pool.New = func() any { return &T{...} }
			for i, lhs := range nn.Lhs {
				sel, ok := lhs.(*ast.SelectorExpr)
				if !ok || !isPoolSel(sel, "New") || i >= len(nn.Rhs) {
					continue
				}
				if fl, ok := nn.Rhs[i].(*ast.FuncLit); ok {
					ast.Inspect(fl.Body, func(m ast.Node) bool {
						if ret, ok := m.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
							if tv, ok := info.Types[ret.Results[0]]; ok {
								add(tv.Type)
							}
						}
						return true
					})
				}
			}
		}
		return true
	})
	return roots
}

// resetMethods maps receiver type name -> the reset FuncDecl in this package.
func resetMethods(p *Pass) map[string]*ast.FuncDecl {
	out := map[string]*ast.FuncDecl{}
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "reset" || fd.Body == nil {
				continue
			}
			if name := recvTypeName(fd); name != "" {
				out[name] = fd
			}
		}
	}
	return out
}

// recvTypeName extracts the receiver's type name, looking through pointers
// and generic instantiations: `func (c *Context[V]) reset()` -> "Context".
func recvTypeName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) != 1 {
		return ""
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.IndexListExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// assignedFields collects the receiver fields a method assigns, following
// calls to sibling methods on the same receiver (r.helper() counting
// helper's assignments too). seen breaks recursion cycles.
func assignedFields(p *Pass, fd *ast.FuncDecl, out map[string]bool, seen map[string]bool) {
	if seen[fd.Name.Name] {
		return
	}
	seen[fd.Name.Name] = true
	recv := ""
	if len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		recv = fd.Recv.List[0].Names[0].Name
	}
	if recv == "" {
		return
	}
	typeName := recvTypeName(fd)

	// fieldOf unwraps index expressions: r.F, r.F[i], r.F[i][j] all assign F.
	fieldOf := func(e ast.Expr) string {
		for {
			if ix, ok := e.(*ast.IndexExpr); ok {
				e = ix.X
				continue
			}
			break
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
				return sel.Sel.Name
			}
		}
		return ""
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range nn.Lhs {
				if f := fieldOf(lhs); f != "" {
					out[f] = true
				}
			}
		case *ast.CallExpr:
			if id, ok := nn.Fun.(*ast.Ident); ok && (id.Name == "clear" || id.Name == "copy") && len(nn.Args) > 0 {
				if f := fieldOf(nn.Args[0]); f != "" {
					out[f] = true
				}
			}
			if sel, ok := nn.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == recv {
					// sibling method call on the receiver: count its work
					if sib := findMethod(p, typeName, sel.Sel.Name); sib != nil {
						assignedFields(p, sib, out, seen)
					}
				}
			}
		}
		return true
	})
}

// findMethod locates a method FuncDecl by receiver type name and method name.
func findMethod(p *Pass, typeName, method string) *ast.FuncDecl {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != method || fd.Body == nil {
				continue
			}
			if recvTypeName(fd) == typeName {
				return fd
			}
		}
	}
	return nil
}

// namedOf unwraps pointers and generic instantiations to the origin named
// type, or nil.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// namedStructOf is namedOf restricted to struct underlyings.
func namedStructOf(t types.Type) *types.Named {
	n := namedOf(t)
	if n == nil {
		return nil
	}
	if _, ok := n.Underlying().(*types.Struct); !ok {
		return nil
	}
	return n
}
