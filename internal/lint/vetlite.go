package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file holds lightweight re-implementations of three vet-family
// analyzers the simlint multichecker assembles alongside the project
// analyzers: copylocks, lostcancel and nilness. `go vet ./...` (which `make
// lint` runs first) carries the full-strength copylocks and lostcancel;
// these stdlib-only versions exist so simlint remains a complete, single
// binary — and because nilness is not in vet's default suite at all.
// The upstream nilness is built on SSA from golang.org/x/tools, which the
// offline build cannot vendor, so NilnessLite covers the highest-value
// subset syntactically: a dereference of a variable inside the very branch
// that just proved it nil.
// Two fixture cases show what the lite passes add over vet: `go vet` flags
// neither the lock returned by value through a named result
// (testdata/src/copylocks/a.go:34) nor the discarded cancel assigned to a
// pre-declared variable (testdata/src/lostcancel/a.go:19).

// CopyLocks flags copies of lock-bearing values: a parameter, a plain
// assignment, or a range-clause value whose type contains a sync.Mutex,
// sync.RWMutex, sync.WaitGroup, sync.Once, sync.Cond, sync.Map or
// sync.Pool by value. A copied lock guards nothing — both copies start
// unlocked and diverge — which in this tree would quietly undo the
// telemetry and engine fan-in synchronization.
var CopyLocks = &Analyzer{
	Name:    "copylocks",
	Doc:     "flag by-value copies of types containing sync primitives",
	Default: true,
	Run:     runCopyLocks,
}

func runCopyLocks(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.FuncDecl:
				checkFieldListCopies(pass, st.Type.Params)
				checkFieldListCopies(pass, st.Type.Results)
			case *ast.FuncLit:
				checkFieldListCopies(pass, st.Type.Params)
				checkFieldListCopies(pass, st.Type.Results)
			case *ast.AssignStmt:
				for _, rhs := range st.Rhs {
					// Copying an existing lock-bearing value; composite
					// literals and calls construct fresh values and are fine.
					switch ast.Unparen(rhs).(type) {
					case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
						if t := pass.Info.TypeOf(rhs); t != nil && lockPath(t) != "" {
							pass.Reportf(rhs.Pos(), "assignment copies lock value: %s contains %s", t, lockPath(t))
						}
					}
				}
			case *ast.RangeStmt:
				if st.Value != nil {
					if t := pass.Info.TypeOf(st.Value); t != nil && lockPath(t) != "" {
						pass.Reportf(st.Value.Pos(), "range clause copies lock value: %s contains %s", t, lockPath(t))
					}
				}
			}
			return true
		})
	}
	return nil
}

func checkFieldListCopies(pass *Pass, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		t := pass.Info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if lp := lockPath(t); lp != "" {
			pass.Reportf(field.Pos(), "%s passes lock by value: it contains %s; use a pointer", t, lp)
		}
	}
}

// lockPath returns a description of the sync primitive t contains by value,
// or "" if none. Pointers stop the search: sharing a lock via pointer is the
// correct shape. Besides the sync package's primitives, any named type with
// niladic pointer-receiver Lock and Unlock methods counts — the go vet
// noCopy-sentinel convention, which trace.Dataset and trace.SegStore embed
// to mark that copying them detaches the columnar memo or the segment state.
func lockPath(t types.Type) string {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		if named, ok := t.(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
				switch obj.Name() {
				case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Map", "Pool":
					return "sync." + obj.Name()
				}
			}
			if isNoCopySentinel(named) {
				return obj.Name() + " (Lock/Unlock no-copy sentinel)"
			}
		}
		for i := 0; i < u.NumFields(); i++ {
			if lp := lockPath(u.Field(i).Type()); lp != "" {
				return lp
			}
		}
	case *types.Array:
		return lockPath(u.Elem())
	}
	return ""
}

// isNoCopySentinel reports whether named carries the vet noCopy convention:
// parameterless, resultless Lock and Unlock methods. Such a type exists only
// to make its container an implicit sync.Locker so copy checks flag it.
func isNoCopySentinel(named *types.Named) bool {
	var hasLock, hasUnlock bool
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		sig, ok := m.Type().(*types.Signature)
		if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 0 {
			continue
		}
		switch m.Name() {
		case "Lock":
			hasLock = true
		case "Unlock":
			hasUnlock = true
		}
	}
	return hasLock && hasUnlock
}

// LostCancel flags context cancel functions that are dropped: assigned to
// the blank identifier, or bound to a variable that is never mentioned
// again in the enclosing function. An unreleased cancel leaks the context's
// timer and goroutine — in the engine's RunContext plumbing that means a
// worker that can never be torn down.
var LostCancel = &Analyzer{
	Name:    "lostcancel",
	Doc:     "flag discarded or unused cancel functions from context.With{Cancel,Timeout,Deadline}",
	Default: true,
	Run:     runLostCancel,
}

func runLostCancel(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkLostCancel(pass, fd.Body)
			return false // checkLostCancel walks nested literals itself
		})
	}
	return nil
}

func checkLostCancel(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Rhs) != 1 {
			return true
		}
		call, ok := st.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		switch fn.Name() {
		case "WithCancel", "WithTimeout", "WithDeadline", "WithCancelCause", "WithTimeoutCause", "WithDeadlineCause":
		default:
			return true
		}
		if len(st.Lhs) != 2 {
			return true
		}
		id, ok := st.Lhs[1].(*ast.Ident)
		if !ok {
			return true
		}
		if id.Name == "_" {
			pass.Reportf(id.Pos(), "the cancel function returned by context.%s is discarded; the context can never be released", fn.Name())
			return true
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		// The variable must be mentioned again (deferred, called, or passed
		// on) somewhere in the surrounding body.
		used := false
		ast.Inspect(body, func(m ast.Node) bool {
			if u, ok := m.(*ast.Ident); ok && u != id && pass.Info.ObjectOf(u) == obj {
				used = true
				return false
			}
			return !used
		})
		if !used {
			pass.Reportf(id.Pos(), "the cancel function %s from context.%s is never used; defer %s()", id.Name, fn.Name(), id.Name)
		}
		return true
	})
}

// NilnessLite flags a dereference of a variable inside the branch that just
// established it is nil: `if x == nil { … x.Field … }` with no intervening
// reassignment of x. The upstream SSA-based nilness catches far more; this
// covers the shape that actually bites in review.
var NilnessLite = &Analyzer{
	Name:    "nilness",
	Doc:     "flag dereferences inside a branch that proved the value nil",
	Default: true,
	Run:     runNilnessLite,
}

func runNilnessLite(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ifst, ok := n.(*ast.IfStmt)
			if !ok {
				return true
			}
			id := nilComparedIdent(pass, ifst.Cond)
			if id == nil {
				return true
			}
			obj := pass.Info.ObjectOf(id)
			if obj == nil {
				return true
			}
			checkNilDeref(pass, ifst.Body, obj, id.Name)
			return true
		})
	}
	return nil
}

// nilComparedIdent returns x when cond is exactly `x == nil`.
func nilComparedIdent(pass *Pass, cond ast.Expr) *ast.Ident {
	bin, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || bin.Op != token.EQL {
		return nil
	}
	x, y := ast.Unparen(bin.X), ast.Unparen(bin.Y)
	if isNilIdent(pass, y) {
		if id, ok := x.(*ast.Ident); ok {
			return id
		}
	}
	if isNilIdent(pass, x) {
		if id, ok := y.(*ast.Ident); ok {
			return id
		}
	}
	return nil
}

func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.Info.Uses[id].(*types.Nil)
	return isNil
}

// checkNilDeref reports pointer dereferences of obj within body, stopping at
// the first reassignment of obj.
func checkNilDeref(pass *Pass, body *ast.BlockStmt, obj types.Object, name string) {
	// Pointer-ish kinds that panic on deref; nil maps read fine and nil
	// slices range fine, so only pointers are flagged.
	if _, ok := obj.Type().Underlying().(*types.Pointer); !ok {
		return
	}
	reassigned := false
	ast.Inspect(body, func(n ast.Node) bool {
		if reassigned {
			return false
		}
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
					reassigned = true
					return false
				}
			}
		case *ast.SelectorExpr:
			// x.F on a *T auto-derefs; x.M() on a nil *T is only safe for
			// methods that guard their receiver, so both shapes are worth a
			// report under a proven-nil guard.
			if id, ok := st.X.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
				pass.Reportf(st.Pos(), "%s is nil on this branch; %s.%s dereferences it", name, name, st.Sel.Name)
				return false
			}
		case *ast.StarExpr:
			if id, ok := st.X.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
				pass.Reportf(st.Pos(), "%s is nil on this branch; *%s dereferences it", name, name)
				return false
			}
		}
		return true
	})
}
