package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RowRetain reports producer-owned row state that is retained past its
// validity window without an explicit copy. Two classes are covered:
//
//   - Tuples obtained from a batch's rows or a cursor's next() that
//     are retained — stored into a struct field, map, slice element,
//     appended, placed in a composite literal, or sent on a channel —
//     without an explicit Clone. Delivered rows are owned by the
//     producer and may alias its internal buffers; retaining one across
//     pulls is exactly the silent-corruption class PR 1 fixed.
//
//   - The row SLICE of an engine.RowBatch (b.Rows, or any sub-slice of
//     it) that is retained the same way. A batch's row slice is valid
//     only until the producer's next NextBatch call, which may reuse or
//     replace it — the batch-boundary aliasing class. Copying the rows
//     out (append(dst, b.Rows...)) is the sanctioned idiom and is not
//     flagged; retaining the slice itself is.
//
// Retention is safe only when the producer is known never to reuse the
// backing array (e.g. materialized tables), which is what the
// suppression justification must argue:
//
//	//lint:ignore rowretain <why the producer never reuses the retained memory>
var RowRetain = &Analyzer{
	Name: "rowretain",
	Doc:  "rows of a NextBatch (or a cursor's next()) must be Cloned (tuples) or copied out (batch row slices) before being retained",
	Run:  runRowRetain,
}

// isRowBatchType reports whether t is engine.RowBatch or *engine.RowBatch.
func isRowBatchType(t types.Type) bool {
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	return isNamedFrom(t, "internal/engine", "RowBatch") || isNamedFrom(t, "engine", "RowBatch")
}

// isTupleSliceType reports whether t's underlying type is a slice of
// tuple.Tuple (covers unnamed []tuple.Tuple and named transport types).
func isTupleSliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	return ok && isTupleType(s.Elem())
}

// isRowPull reports whether call pulls a producer-owned row: a method
// named Next (the RowIter protocol) or next (the engine's in-operator
// batch cursors, which hand out exactly the same producer-owned rows).
func isRowPull(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && (sel.Sel.Name == "Next" || sel.Sel.Name == "next")
}

func runRowRetain(p *Pass) {
	p.funcBodies(func(decl *ast.FuncDecl) {
		// taintedRow holds variables bound to a row that came out of a
		// Next()/next() call or a batch's row slice, including
		// sub-slices of one (data := row[:n] still aliases the
		// producer's buffer). taintedSlice holds variables aliasing a
		// RowBatch's row slice, which the producer reuses on NextBatch.
		taintedRow := make(map[types.Object]bool)
		taintedSlice := make(map[types.Object]bool)

		// isBatchRows reports whether e denotes (a sub-slice of) the row
		// slice of a RowBatch: b.Rows, b.Rows[i:j], or a variable
		// already tainted as one.
		var isBatchRows func(e ast.Expr) bool
		isBatchRows = func(e ast.Expr) bool {
			switch x := e.(type) {
			case *ast.Ident:
				obj := p.objOf(x)
				return obj != nil && taintedSlice[obj]
			case *ast.SelectorExpr:
				return x.Sel.Name == "Rows" && isRowBatchType(p.typeOf(x.X))
			case *ast.SliceExpr:
				return isBatchRows(x.X)
			case *ast.ParenExpr:
				return isBatchRows(x.X)
			}
			return false
		}

		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := p.objOf(id)
					if obj == nil {
						continue
					}
					rhs := s.Rhs[0]
					if len(s.Rhs) == len(s.Lhs) {
						rhs = s.Rhs[i]
					}
					switch {
					case isTupleType(obj.Type()):
						switch r := rhs.(type) {
						case *ast.CallExpr:
							if isRowPull(r) {
								taintedRow[obj] = true
							}
						case *ast.SliceExpr:
							if base, ok := r.X.(*ast.Ident); ok && taintedRow[p.objOf(base)] {
								taintedRow[obj] = true
							}
						case *ast.IndexExpr:
							// row := b.Rows[i] — a row read out of a live
							// batch is a producer-owned row like any other.
							if isBatchRows(r.X) {
								taintedRow[obj] = true
							}
						}
					case isTupleSliceType(obj.Type()):
						if isBatchRows(rhs) {
							taintedSlice[obj] = true
						}
					}
				}
			case *ast.RangeStmt:
				// for _, row := range b.Rows { ... } taints the value
				// variable exactly like row := b.Rows[i].
				if id, ok := s.Value.(*ast.Ident); ok && id.Name != "_" && isBatchRows(s.X) {
					if obj := p.objOf(id); obj != nil && isTupleType(obj.Type()) {
						taintedRow[obj] = true
					}
				}
			}
			return true
		})
		isTaintedIdent := func(e ast.Expr) (*ast.Ident, bool) {
			id, ok := e.(*ast.Ident)
			if !ok {
				return nil, false
			}
			if obj := p.Pkg.Info.Uses[id]; obj != nil && taintedRow[obj] {
				return id, true
			}
			return nil, false
		}

		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					if len(s.Lhs) != len(s.Rhs) {
						break
					}
					switch l := lhs.(type) {
					case *ast.SelectorExpr:
						// Assigning INTO a batch's Rows field is the
						// producer side of the protocol (refill or
						// transport adoption), not retention.
						if l.Sel.Name == "Rows" && isRowBatchType(p.typeOf(l.X)) {
							continue
						}
					case *ast.IndexExpr:
					default:
						continue
					}
					if id, ok := isTaintedIdent(s.Rhs[i]); ok {
						p.Reportf(id.Pos(),
							"tuple %s obtained from Next() is stored without Clone — the producer may reuse its backing array", id.Name)
					}
					if isBatchRows(s.Rhs[i]) {
						p.Reportf(s.Rhs[i].Pos(),
							"batch row slice is stored without copying — it is only valid until the next NextBatch")
					}
				}
			case *ast.CallExpr:
				if fn, ok := s.Fun.(*ast.Ident); ok && fn.Name == "append" {
					if _, isBuiltin := p.Pkg.Info.Uses[fn].(*types.Builtin); isBuiltin {
						for j, arg := range s.Args[1:] {
							if id, ok := isTaintedIdent(arg); ok {
								p.Reportf(id.Pos(),
									"tuple %s obtained from Next() is appended without Clone — the producer may reuse its backing array", id.Name)
							}
							// append(dst, b.Rows...) copies the rows out —
							// the sanctioned hand-off idiom. Appending the
							// slice itself as one element retains it.
							spread := s.Ellipsis != token.NoPos && j == len(s.Args)-2
							if !spread && isBatchRows(arg) {
								p.Reportf(arg.Pos(),
									"batch row slice is appended without copying — it is only valid until the next NextBatch")
							}
						}
					}
				}
			case *ast.CompositeLit:
				for _, elt := range s.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						elt = kv.Value
					}
					if id, ok := isTaintedIdent(elt); ok {
						p.Reportf(id.Pos(),
							"tuple %s obtained from Next() is placed in a composite literal without Clone", id.Name)
					}
					if isBatchRows(elt) {
						p.Reportf(elt.Pos(),
							"batch row slice is placed in a composite literal without copying — it is only valid until the next NextBatch")
					}
				}
			case *ast.SendStmt:
				if id, ok := isTaintedIdent(s.Value); ok {
					p.Reportf(id.Pos(),
						"tuple %s obtained from Next() is sent on a channel without Clone", id.Name)
				}
				if isBatchRows(s.Value) {
					p.Reportf(s.Value.Pos(),
						"batch row slice is sent on a channel without copying — it is only valid until the next NextBatch")
				}
			}
			return true
		})
	})
}
