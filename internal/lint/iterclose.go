package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// IterClose reports row iterators that are obtained but neither closed
// nor handed off. A function that calls something returning a
// RowIter-shaped value (method set has Next and Close — engine.RowIter
// implementations and *snapk.Rows alike) owns it and must discharge the
// obligation by calling Close on it, returning it, or passing it to
// another function/struct that takes ownership. An iterator that is
// only ever Next()ed leaks its pipeline — under the parallel executor
// that means leaked fragment goroutines, not just memory.
//
// The hand-off rule is deliberately conservative: any use other than a
// method call or a reassignment (argument position, return value,
// composite literal, channel send) counts as an ownership transfer, so
// the analyzer never second-guesses constructor chains like
// NewFilterIter(in) that document "closing the result closes in".
var IterClose = &Analyzer{
	Name: "iterclose",
	Doc:  "row iterators obtained from a call must be closed, returned, or handed off",
	Run:  runIterClose,
}

func runIterClose(p *Pass) {
	p.funcBodies(func(decl *ast.FuncDecl) {
		type obligation struct {
			pos  token.Pos
			name string
			typ  types.Type
		}
		obtained := make(map[types.Object]obligation)
		discharged := make(map[types.Object]bool)

		// Pass 1: every `x := f(...)` (or `x, err := f(...)`) whose
		// bound variable is RowIter-shaped creates a close obligation.
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				rhs := as.Rhs[0]
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				}
				if _, ok := rhs.(*ast.CallExpr); !ok {
					continue
				}
				obj := p.objOf(id)
				if obj == nil || !isClosable(obj.Type()) {
					continue
				}
				if _, seen := obtained[obj]; !seen {
					obtained[obj] = obligation{pos: id.Pos(), name: id.Name, typ: obj.Type()}
				}
			}
			return true
		})
		if len(obtained) == 0 {
			return
		}

		// Pass 2: classify every later use of the obligated variables.
		walkStack(decl.Body, func(n ast.Node, stack []ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := p.Pkg.Info.Uses[id]
			if obj == nil {
				return true
			}
			if _, ok := obtained[obj]; !ok {
				return true
			}
			if len(stack) == 0 {
				return true
			}
			parent := stack[len(stack)-1]
			switch pn := parent.(type) {
			case *ast.SelectorExpr:
				if pn.X != id {
					return true
				}
				if call, ok := callOf(stack[:len(stack)-1]); ok && call.Fun == pn {
					if pn.Sel.Name == "Close" {
						discharged[obj] = true
					}
					// Other method calls (Next, Schema) neither close
					// nor transfer ownership.
					return true
				}
				// Method value (e.g. t.Cleanup(it.Close)) escapes.
				discharged[obj] = true
			case *ast.AssignStmt:
				for _, lhs := range pn.Lhs {
					if lhs == ast.Expr(id) {
						return true // reassignment, not a consuming use
					}
				}
				discharged[obj] = true // appears on an RHS: aliased away
			default:
				// Argument, return, composite literal, send, comparison…
				// — ownership is assumed to transfer.
				discharged[obj] = true
			}
			return true
		})

		for obj, ob := range obtained {
			if !discharged[obj] {
				p.Reportf(ob.pos,
					"%s (%s) is obtained here but never closed, returned, or handed off — call Close on every path",
					ob.name, types.TypeString(ob.typ, types.RelativeTo(p.Pkg.Types)))
			}
		}
	})
}

// callOf returns the nearest enclosing CallExpr, if the stack's top is
// one.
func callOf(stack []ast.Node) (*ast.CallExpr, bool) {
	if len(stack) == 0 {
		return nil, false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	return call, ok
}
