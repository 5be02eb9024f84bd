package analysis

import (
	"go/ast"
	"go/types"
)

// Densepath protects the dense-path performance property: kernels traverse
// CSR graphs through hash-free dense-index accessors (GetAt/SetAt/
// IsInnerAt/...), worth 2–8× end to end on most query classes. The sparse
// by-ID accessors hash on every call, and nothing but review stops a kernel
// edit from quietly reaching for them — the program still returns the right
// answer, just slower, which no test catches.
//
// Inside PIE-program bodies (PEval/IncEval/Assemble/RepairBatch), a call to
// a method M whose receiver also offers M+"At" is flagged; a call that must
// stay needs //grapevet:keep with a reason.
//
// A by-ID lookup on a graph (densepathLookup) in PEval, IncEval or Assemble
// is flagged the same way: a fragment builds its ID index on the first one,
// so it costs every fragment a map on every run. Fragment.Local is the
// one-off lookup that does not.
//
// The engine's per-update bodies (densepathPerUpdate) get the same protection:
// inside them a vertex is a border position, a slot or a dense index, and a
// call that finds one by its ID — a hash or a search per update — is flagged.
var Densepath = &Analyzer{
	Name: "densepath",
	Doc:  "PIE kernel bodies must use dense ...At accessors when one exists",
	Run:  runDensepath,
}

// densepathBodies are the PIE program entry points whose bodies are kernels.
var densepathBodies = map[string]bool{
	"PEval": true, "IncEval": true, "Assemble": true, "RepairBatch": true,
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
	perRun := densepathPerRun[fd.Name.Name]
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if densepathSparse[sel.Sel.Name] {
			if named := recvWithDenseTwin(info, sel); named != nil {
				p.Reportf(sel.Sel.Pos(), "%s.%s in %s hashes per call; the dense %sAt counterpart exists — resolve the index once and stay on the CSR path (or //grapevet:keep <why>)",
					named.Obj().Name(), sel.Sel.Name, fd.Name.Name, sel.Sel.Name)
			}
		} else if m := methodOf(info, sel); perRun && densepathLookup[m] {
			p.Reportf(sel.Sel.Pos(), "%s in %s looks a vertex up by ID, which builds the ID index of every fragment on every run; use Fragment.Local for a one-off lookup (or //grapevet:keep <why>)",
				m, fd.Name.Name)
		}
		return true
	})
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
