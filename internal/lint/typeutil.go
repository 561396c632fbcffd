package lint

import (
	"go/ast"
	"go/types"
)

// isClosable reports whether t's method set (including the pointer
// method set for addressable values) contains Close and a pull method,
// Next or NextBatch — the structural signature of the engine's
// batch-only RowIter and of snapk.Rows. Matching structurally rather
// than by named type keeps the check working for every wrapper
// iterator without importing the engine.
func isClosable(t types.Type) bool {
	if t == nil {
		return false
	}
	for _, pull := range []string{"Next", "NextBatch"} {
		if hasMethods(t, "Close", pull) || hasMethods(types.NewPointer(t), "Close", pull) {
			return true
		}
	}
	return false
}

func hasMethods(t types.Type, names ...string) bool {
	ms := types.NewMethodSet(t)
	found := 0
	for _, name := range names {
		for i := 0; i < ms.Len(); i++ {
			if ms.At(i).Obj().Name() == name {
				found++
				break
			}
		}
	}
	return found == len(names)
}

// isNamedFrom reports whether t (after unaliasing) is the named type
// pkgSuffix.name, with the defining package matched by import-path
// suffix so fixtures under synthetic paths resolve the same way as the
// real tree.
func isNamedFrom(t types.Type, pkgSuffix, name string) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSuffix || hasPathSuffix(path, pkgSuffix)
}

// hasPathSuffix reports whether path ends in "/"+suffix.
func hasPathSuffix(path, suffix string) bool {
	return len(path) > len(suffix)+1 &&
		path[len(path)-len(suffix)-1] == '/' &&
		path[len(path)-len(suffix):] == suffix
}

// isTupleType reports whether t is tuple.Tuple.
func isTupleType(t types.Type) bool {
	return isNamedFrom(t, "internal/tuple", "Tuple") || isNamedFrom(t, "tuple", "Tuple")
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// typeOf returns the static type of e in the pass's package, or nil.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// objOf resolves an identifier to its object (use or def), or nil.
func (p *Pass) objOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// funcBodies yields every function declaration body in the package.
func (p *Pass) funcBodies(fn func(decl *ast.FuncDecl)) {
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}
