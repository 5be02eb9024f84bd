package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Mapdet guards the first cross-substrate invariant: everything that emits
// bytes onto the wire, builds a cache key, or folds update parameters must
// iterate deterministically. Go's map iteration order is randomized per run,
// so a bare map range inside an Encode*/Append*/canonical*/fold path makes
// encode bytes differ between two runs over identical state — results still
// agree, but comm-byte metering drifts, cache keys stop matching, and the
// byte-identical-across-substrates property the benches pin is silently
// gone.
//
// The one blessed idiom is collect-then-sort: a range whose body only
// appends to slices, followed by a sort call later in the same function.
// Anything else needs a //grapevet:keep with a reason.
var Mapdet = &Analyzer{
	Name: "mapdet",
	Doc: "flag nondeterministic map iteration in encode/canonicalize/fold paths; " +
		"the collect-keys-then-sort idiom is recognized as safe",
	Run: runMapdet,
}

// mapdetScopes are the function-name prefixes that mark a deterministic
// path: wire encoders (Encode*/Append*), cache-key canonicalization and the
// coordinator's fold/flush machinery.
var mapdetScopes = []string{
	"Encode", "encode", "Append", "append",
	"Canonical", "canonical", "Fold", "fold", "Flush", "flush",
}

func inMapdetScope(name string) bool {
	for _, pre := range mapdetScopes {
		if strings.HasPrefix(name, pre) {
			return true
		}
	}
	return false
}

func runMapdet(p *Pass) error {
	info := p.Pkg.Info
	for _, file := range p.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !inMapdetScope(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				if isCollectLoop(rs) && sortsAfter(fd.Body, rs) {
					return true
				}
				p.Reportf(rs.Pos(), "map iteration in deterministic path %s: emission order is randomized per run; collect keys into a slice and sort before emitting", fd.Name.Name)
				return true
			})
		}
	}
	return nil
}

// isCollectLoop reports whether every statement of the range body is an
// append into a slice (`x = append(x, ...)`): the loop gathers keys/values
// without emitting anything order-dependent.
func isCollectLoop(rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, stmt := range rs.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" || len(call.Args) < 2 {
			return false
		}
	}
	return true
}

// sortsAfter reports whether a sort call (sort.*, slices.Sort*) appears
// lexically after the range statement inside the function body — half two of the
// collect-then-sort idiom. The pairing is lexical, not data-flow, which is
// precise enough for review-time enforcement.
func sortsAfter(body *ast.BlockStmt, rs *ast.RangeStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && (id.Name == "sort" || id.Name == "slices" && strings.HasPrefix(sel.Sel.Name, "Sort")) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
