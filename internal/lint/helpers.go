package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Import paths of the API packages the analyzers know about. The suffix
// match (rather than full-path equality) lets the fixture packages under
// testdata exercise the analyzers against the real repro packages while
// keeping the checks meaningful if the module is ever renamed.
const (
	stmPathSuffix      = "internal/stm"
	semPathSuffix      = "internal/sem"
	corePathSuffix     = "internal/core"
	obsPathSuffix      = "internal/obs"
	registryPathSuffix = "internal/obs/registry"
)

func pathIs(pkg *types.Package, suffix string) bool {
	if pkg == nil {
		return false
	}
	return pathStrIs(pkg.Path(), suffix)
}

func pathStrIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// deref strips one level of pointer.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedOf returns the named type underlying t (through one pointer), or
// nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := deref(t).(*types.Named)
	return n
}

// isStmTx reports whether t is *stm.Tx (or stm.Tx).
func isStmTx(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "Tx" && pathIs(n.Obj().Pkg(), stmPathSuffix)
}

// isStmVar reports whether t is a *stm.Var[T] (or stm.Var[T]).
func isStmVar(t types.Type) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == "Var" && pathIs(n.Obj().Pkg(), stmPathSuffix)
}

// pkgFuncCall reports a call of a package-level function pkg.Name(...),
// returning the package path and function name.
func pkgFuncCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isID := sel.X.(*ast.Ident)
	if !isID {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodCall reports a method call recv.Name(...), returning the named
// type of the receiver (through one pointer) and the method name.
func methodCall(info *types.Info, call *ast.CallExpr) (recv *types.Named, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	s := info.Selections[sel]
	if s == nil || s.Kind() != types.MethodVal {
		return nil, "", false
	}
	n := namedOf(s.Recv())
	if n == nil {
		return nil, "", false
	}
	return n, sel.Sel.Name, true
}

// atomicBlockKind classifies a call that runs a function literal
// transactionally.
type atomicBlockKind int

const (
	notAtomic        atomicBlockKind = iota
	atomicOptimistic                 // Atomic, MustAtomic, AtomicRead, AtomicStripe, tx.Atomic
	atomicRelaxed                    // AtomicRelaxed: irrevocable, I/O is legal
)

// atomicBlock reports whether call runs its function-literal argument as a
// transaction body: Engine.Atomic/MustAtomic/AtomicRead/AtomicStripe/
// AtomicRelaxed and the flat-nesting Tx.Atomic. Returns the literal when
// present. An AtomicStripe body counts as optimistic: it runs once on a
// write-through engine but through Atomic on an HTM one, and it holds
// its stripe's orec throughout.
func atomicBlock(info *types.Info, call *ast.CallExpr) (lit *ast.FuncLit, kind atomicBlockKind) {
	recv, name, ok := methodCall(info, call)
	if !ok || !pathIs(recv.Obj().Pkg(), stmPathSuffix) {
		return nil, notAtomic
	}
	rn := recv.Obj().Name()
	if rn != "Engine" && rn != "Tx" {
		return nil, notAtomic
	}
	switch name {
	case "Atomic", "MustAtomic", "AtomicRead", "AtomicStripe":
		kind = atomicOptimistic
	case "AtomicRelaxed":
		kind = atomicRelaxed
	default:
		return nil, notAtomic
	}
	if len(call.Args) == 0 {
		return nil, notAtomic
	}
	lit, _ = call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit, kind
}

// handlerLit reports whether call registers its function-literal argument
// as a commit/abort handler (tx.OnCommit / tx.OnAbort): handler bodies run
// outside the transaction, so transaction-body checks must skip them.
func handlerLit(info *types.Info, call *ast.CallExpr) *ast.FuncLit {
	recv, name, ok := methodCall(info, call)
	if !ok || !pathIs(recv.Obj().Pkg(), stmPathSuffix) {
		return nil
	}
	if recv.Obj().Name() != "Tx" || (name != "OnCommit" && name != "OnAbort") {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	lit, _ := call.Args[0].(*ast.FuncLit)
	return lit
}

// condvarTypes are the condition-variable facades whose Wait/Notify
// methods the waitloop and nakednotify checks understand. The pthreadcv
// baseline is included: its waits DO wake spuriously, so the loop
// discipline matters even more there.
var condvarTypeNames = map[string]bool{
	"CondVar":  true, // core.CondVar
	"LockCond": true, // core.LockCond
	"TxCond":   true, // core.TxCond
	"Cond":     true, // pthreadcv.Cond
}

// isCondvarRecv reports whether a named receiver type is one of the
// condvar facades of this module.
func isCondvarRecv(n *types.Named) bool {
	if n == nil || n.Obj().Pkg() == nil {
		return false
	}
	return condvarTypeNames[n.Obj().Name()]
}

// enclosingFuncDecl returns the innermost FuncDecl in the ancestor stack.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}

// isSyncFacadeMethod reports whether fd is a method of a type that itself
// exposes a condvar-style wait — i.e. the function is part of a
// synchronization facade layer (core.LockCond, monitor.Cond, ...). Inside
// such a layer the predicate loop and the predicate-state write are the
// *caller's* obligations, so waitloop and nakednotify exempt these
// methods.
func isSyncFacadeMethod(info *types.Info, fd *ast.FuncDecl) bool {
	if fd == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	n := namedOf(info.TypeOf(fd.Recv.List[0].Type))
	if n == nil {
		return false
	}
	for i := 0; i < n.NumMethods(); i++ {
		if waitMethodNames[n.Method(i).Name()] {
			return true
		}
	}
	return false
}

// isStmTxRecv reports whether a named receiver is stm.Tx.
func isStmTxRecv(n *types.Named) bool {
	return n != nil && n.Obj().Name() == "Tx" && pathIs(n.Obj().Pkg(), stmPathSuffix)
}

// methodOf returns the named receiver type (through one pointer) and the
// name of a method object.
func methodOf(fn *types.Func) (*types.Named, string, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, "", false
	}
	n := namedOf(sig.Recv().Type())
	if n == nil {
		return nil, "", false
	}
	return n, fn.Name(), true
}

// baseEffect is the effect table for the sanctioned API surface. For a
// method call recv.name it returns the discipline-level effect (possibly
// zero) and whether recv is a base type at all. Base-type methods are
// never descended into: their implementations are the primitive's
// business (locks, trace emits, deliberate fault windows), not the
// caller's. In particular the transactional waits (CondVar.WaitTx /
// WaitAtCommit, and TxCond.Wait forwarding to them) are effect-free by
// construction — they park only after CommitEarly or inside an OnCommit
// handler — and fault.Injector methods are effect-free because injected
// delays are deliberate chaos, not application behavior.
func baseEffect(recv *types.Named, name string) (Effect, string, bool) {
	if recv == nil || recv.Obj().Pkg() == nil {
		return 0, "", false
	}
	rn := recv.Obj().Name()
	pkg := recv.Obj().Pkg()
	switch {
	case rn == "Sem" && pathIs(pkg, semPathSuffix):
		switch name {
		case "Post":
			return EffSemPost, "sem." + name, true
		case "Wait", "WaitTimeout", "WaitCtx":
			return EffBlock, "sem." + name, true
		}
		return 0, "", true
	case rn == "Tracer" && pathIs(pkg, obsPathSuffix):
		if name == "Emit" || name == "EmitEvent" || name == "EmitFlow" {
			return EffTrace, "obs.Tracer." + name, true
		}
		return 0, "", true
	case rn == "Registry" && pathIs(pkg, registryPathSuffix):
		if strings.HasPrefix(name, "Register") || strings.HasPrefix(name, "Unregister") || strings.HasPrefix(name, "Set") {
			return EffRegistry, "registry.Registry." + name, true
		}
		return 0, "", true
	case rn == "Engine" && pathIs(pkg, stmPathSuffix):
		switch name {
		case "Atomic", "MustAtomic", "AtomicRead", "AtomicStripe", "AtomicRelaxed":
			return EffNestedAtomic, "Engine." + name, true
		}
		if strings.HasPrefix(name, "Register") {
			return EffRegistry, "Engine." + name, true
		}
		return 0, "", true
	case (rn == "Tx" || rn == "Var") && pathIs(pkg, stmPathSuffix):
		return 0, "", true
	case rn == "Injector" && pathIs(pkg, "internal/fault"):
		return 0, "", true
	case isCondvarRecv(recv):
		switch {
		case notifyMethodNames[name]:
			return EffNotify, rn + "." + name, true
		case name == "WaitTx" || name == "WaitAtCommit":
			return 0, "", true
		case rn == "TxCond" && name == "Wait":
			return 0, "", true // forwards to WaitTx: transactional, sanctioned
		case waitMethodNames[name]:
			return EffBlock, rn + "." + name, true
		case strings.HasPrefix(name, "Register") || strings.HasPrefix(name, "Unregister"):
			return EffRegistry, rn + "." + name, true
		}
		return 0, "", true
	}
	return 0, "", false
}

// bodyContainsTxWait reports whether an atomic body literal contains a
// transactional wait (CondVar.WaitTx / WaitAtCommit / TxCond.Wait) — the
// marker of a Wait-predicate body.
func bodyContainsTxWait(info *types.Info, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		recv, name, isM := methodCall(info, call)
		if !isM || !isCondvarRecv(recv) {
			return true
		}
		if name == "WaitTx" || name == "WaitAtCommit" || (recv.Obj().Name() == "TxCond" && name == "Wait") {
			found = true
		}
		return !found
	})
	return found
}

// isForwardingWrapper reports whether fd's body consists of exactly the
// flagged call (optionally returned): a facade that only forwards is
// exempt from caller-obligation checks, because the loop or state change
// belongs at ITS call sites.
func isForwardingWrapper(fd *ast.FuncDecl, call *ast.CallExpr) bool {
	if fd == nil || fd.Body == nil || len(fd.Body.List) != 1 {
		return false
	}
	switch s := fd.Body.List[0].(type) {
	case *ast.ExprStmt:
		return s.X == call
	case *ast.ReturnStmt:
		return len(s.Results) == 1 && s.Results[0] == call
	}
	return false
}
