package lint

import (
	"go/ast"
	"go/types"
)

// OrderedChan reports channel construction inside functions that build
// an ordered merge (an orderedMergeIter). A k-way merge cannot emit a
// row until every source has a head row, so a bounded channel feeding
// it is safe only when nothing else can hold up the producer: one
// producer per channel, one merge per producer, and a merge that always
// drains the source it waits on. A producer that fans out to several
// merges can block on a full buffer toward one of them while another
// waits for its next row, and under partition skew the whole exchange
// deadlocks. The executor's streaming sweeps avoid the class
// altogether: their partitions are read off the sorted scans with no
// transport at all. A channel in an ordered-merge path needs
//
//	//lint:ignore orderedchan <why this channel cannot block the merge>
//
// arguing that drain guarantee.
var OrderedChan = &Analyzer{
	Name: "orderedchan",
	Doc:  "no make(chan …) feeding an ordered merge without a drain argument — bounded buffers deadlock under skew",
	Run:  runOrderedChan,
}

func runOrderedChan(p *Pass) {
	p.funcBodies(func(decl *ast.FuncDecl) {
		if !buildsOrderedMerge(p, decl.Body) {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			fn, ok := call.Fun.(*ast.Ident)
			if !ok || fn.Name != "make" {
				return true
			}
			if _, isBuiltin := p.Pkg.Info.Uses[fn].(*types.Builtin); !isBuiltin {
				return true
			}
			if _, ok := call.Args[0].(*ast.ChanType); !ok {
				return true
			}
			p.Reportf(call.Pos(),
				"channel transport inside an ordered-merge construction deadlocks under partition skew unless the merge always drains the source it waits on")
			return true
		})
	})
}

// buildsOrderedMerge reports whether the function constructs an
// ordered-merge iterator (an orderedMergeIter composite literal).
func buildsOrderedMerge(p *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		t := p.typeOf(lit)
		if named, ok := types.Unalias(t).(*types.Named); ok && named.Obj().Name() == "orderedMergeIter" {
			found = true
		}
		return !found
	})
	return found
}
