package analysis

import (
	"go/ast"
	"go/types"
)

// Densepath protects the PR 3 performance property: kernels traverse frozen
// CSR graphs through hash-free dense-index accessors (GetAt/SetAt/
// IsInnerAt/...), worth 2–8× end to end on most query classes. The sparse
// by-ID accessors hash on every call, and nothing but review stops a kernel
// edit from quietly reaching for them — the program still returns the right
// answer, just slower, which no test catches.
//
// Inside PIE-program bodies (PEval/IncEval/Assemble/ApplyUpdate), a call to
// a method M whose receiver also offers M+"At" is flagged, unless the call
// is in a recognized sparse fallback: lexically behind a branch on
// (*graph.Graph).Frozen(), the documented thawed-graph path taken after a
// session mutation. Anything else needs //grapevet:keep with a reason.
//
// A by-ID lookup on a graph (densepathLookup) in PEval, IncEval or Assemble
// is flagged the same way: a fragment builds its ID index on the first one,
// so on the frozen path it costs every fragment a map on every run.
// Fragment.Local is the one-off lookup that does not.
//
// The engine's per-update bodies (densepathPerUpdate) get the same protection:
// inside them a vertex is a border position, a slot or a dense index, and a
// call that finds one by its ID — a hash or a search per update — is flagged.
var Densepath = &Analyzer{
	Name: "densepath",
	Doc: "PIE kernel bodies must use dense ...At accessors when one exists, unless " +
		"guarded by a Frozen() fallback branch",
	Run: runDensepath,
}

// densepathBodies are the PIE program entry points whose bodies are kernels.
var densepathBodies = map[string]bool{
	"PEval": true, "IncEval": true, "Assemble": true, "ApplyUpdate": true,
}

// densepathSparse limits matching to the engine's known sparse accessors, so
// an unrelated pair like Shape/ShapeAt on some other type cannot misfire.
var densepathSparse = map[string]bool{
	"Get": true, "Set": true, "SetLocal": true,
	"IsBorder": true, "IsInner": true, "Updated": true, "Vars": true,
}

// densepathPerUpdate are the engine bodies that run once per update parameter;
// densepathByID the calls, as Type.Method, that look a vertex up by ID;
// densepathLookup those of them that build a fragment's ID index, and the
// bodies they are flagged in.
var (
	densepathPerUpdate = map[string]bool{"flush": true, "apply": true, "fold": true, "buildRoute": true, "replayFor": true}
	densepathByID      = map[string]bool{"Graph.Index": true, "Assignment.Owner": true, "Layout.SlotOf": true, "Fragment.BorderPos": true}
	densepathLookup    = map[string]bool{"Graph.Index": true, "Graph.Has": true}
	densepathPerRun    = map[string]bool{"PEval": true, "IncEval": true, "Assemble": true}
)

func runDensepath(p *Pass) error {
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if densepathBodies[fd.Name.Name] {
				checkDense(p, fd)
			}
			if densepathPerUpdate[fd.Name.Name] {
				checkPositional(p, fd)
			}
		}
	}
	return nil
}

func checkPositional(p *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if m := methodOf(p.Pkg.Info, sel); densepathByID[m] {
			p.Reportf(sel.Sel.Pos(), "%s in %s looks a vertex up by ID once per update; inside the engine an update parameter is addressed by position (border position, slot, dense index) — resolve IDs where they enter, at decode or at a session call",
				m, fd.Name.Name)
		}
		return true
	})
}

// methodOf names the method sel selects as Type.Method, or "" if it selects
// none on a named type.
func methodOf(info *types.Info, sel *ast.SelectorExpr) string {
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
		if named := namedOf(s.Recv()); named != nil {
			return named.Obj().Name() + "." + sel.Sel.Name
		}
	}
	return ""
}

func checkDense(p *Pass, fd *ast.FuncDecl) {
	info := p.Pkg.Info
	frozen := frozenVars(info, fd.Body)
	perRun := densepathPerRun[fd.Name.Name]

	// Walk with an explicit ancestor stack so each call site can see the
	// branches that guard it.
	var stack []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		stack = append(stack, n)
		if sel, ok := n.(*ast.SelectorExpr); ok && densepathSparse[sel.Sel.Name] {
			if named := recvWithDenseTwin(info, sel); named != nil && !inFrozenFallback(info, stack, frozen) {
				p.Reportf(sel.Sel.Pos(), "%s.%s in %s hashes per call; the dense %sAt counterpart exists — resolve the index once and stay on the CSR fast path (or //grapevet:keep <why> for a thawed fallback)",
					named.Obj().Name(), sel.Sel.Name, fd.Name.Name, sel.Sel.Name)
			}
		} else if ok && perRun {
			if m := methodOf(info, sel); densepathLookup[m] && !inFrozenFallback(info, stack, frozen) {
				p.Reportf(sel.Sel.Pos(), "%s in %s looks a vertex up by ID on the frozen path, which builds the ID index of every fragment on every run; use Fragment.Local for a one-off lookup (or //grapevet:keep <why>)",
					m, fd.Name.Name)
			}
		}
		children(n, walk)
		stack = stack[:len(stack)-1]
	}
	walk(fd.Body)
}

// recvWithDenseTwin returns the receiver's named type if sel selects a
// method M on it and the type also has a method M+"At".
func recvWithDenseTwin(info *types.Info, sel *ast.SelectorExpr) *types.Named {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return nil
	}
	named := namedOf(s.Recv())
	if named == nil || !hasMethod(named, sel.Sel.Name+"At") {
		return nil
	}
	return named
}

func hasMethod(n *types.Named, name string) bool {
	ms := types.NewMethodSet(types.NewPointer(n))
	for i := 0; i < ms.Len(); i++ {
		if ms.At(i).Obj().Name() == name {
			return true
		}
	}
	return false
}

// frozenVars collects identifiers assigned from a .Frozen() call, e.g.
// `frozen := g.Frozen()`, so guards spelled through a variable count.
func frozenVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Frozen" {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					out[obj] = true
				} else if obj := info.Uses[id]; obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// mentionsFrozen reports whether the condition involves a Frozen() call or a
// variable bound to one.
func mentionsFrozen(info *types.Info, cond ast.Expr, frozen map[types.Object]bool) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.SelectorExpr:
			if nn.Sel.Name == "Frozen" {
				found = true
			}
		case *ast.Ident:
			if obj := info.Uses[nn]; obj != nil && frozen[obj] {
				found = true
			}
		}
		return !found
	})
	return found
}

// inFrozenFallback reports whether the innermost node of stack sits in a
// recognized sparse-fallback region: the else branch of an if on Frozen(),
// or lexically after a sibling `if ...Frozen()... { ...; return/continue/
// break }` in an enclosing block. This matches the repo's idiom exactly —
// the dense path exits early and the sparse fallback follows.
func inFrozenFallback(info *types.Info, stack []ast.Node, frozen map[types.Object]bool) bool {
	target := stack[len(stack)-1]
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.IfStmt:
			if n.Else != nil && within(target, n.Else) && mentionsFrozen(info, n.Cond, frozen) {
				return true
			}
		case *ast.BlockStmt:
			for _, stmt := range n.List {
				if stmt.End() > target.Pos() {
					break
				}
				ifs, ok := stmt.(*ast.IfStmt)
				if !ok || !mentionsFrozen(info, ifs.Cond, frozen) {
					continue
				}
				if endsInExit(ifs.Body) {
					return true
				}
			}
		}
	}
	return false
}

func within(n ast.Node, outer ast.Node) bool {
	return n.Pos() >= outer.Pos() && n.End() <= outer.End()
}

// endsInExit reports whether the block's last statement leaves the enclosing
// region (return, continue, break, or a panic call).
func endsInExit(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// children invokes walk on each direct child of n, in source order.
func children(n ast.Node, walk func(ast.Node)) {
	first := true
	ast.Inspect(n, func(m ast.Node) bool {
		if first {
			first = false
			return true
		}
		if m != nil {
			walk(m)
		}
		return false
	})
}
