package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerWaitLoop flags condvar waits whose surrounding predicate
// re-check is not inside a for loop. One condition variable commonly
// multiplexes several predicates, so a wake-up is oblivious: it proves
// *some* state changed, not that *your* predicate now holds. Returning
// from a wait without re-checking in a loop is the classic lost-wakeup /
// stolen-wakeup bug. (For the pthreadcv baseline the loop is mandatory
// for an extra reason: its waits wake spuriously.)
//
// The check understands the repo's atomic-block idiom: the loop usually
// encloses the Atomic call, with the wait inside the transaction literal —
//
//	for {
//	    e.MustAtomic(func(tx *stm.Tx) {
//	        if pred(tx) { ...; return }
//	        cv.WaitTx(tx)
//	    })
//	}
//
// so function literals passed to Atomic/MustAtomic/AtomicRead/
// AtomicStripe/AtomicRelaxed and Sync.Exec are transparent when
// searching for the enclosing loop.
//
// False-positive policy: a wait that genuinely needs no predicate (a
// one-shot event with a single waiter) should either be rewritten with an
// explicit condition — cheap, and robust against a second waiter appearing
// later — or annotated with a cvlint:ignore waitloop comment.
var AnalyzerWaitLoop = &Analyzer{
	Name: "waitloop",
	Doc:  "detect condvar waits whose predicate re-check is not in a loop",
	Run:  runWaitLoop,
}

// waitMethodNames are the blocking wait entry points of the condvar
// facades.
var waitMethodNames = map[string]bool{
	"Wait":              true,
	"WaitTx":            true,
	"WaitCtx":           true,
	"WaitTagged":        true,
	"WaitLocked":        true,
	"WaitLockedCtx":     true,
	"WaitLockedTimeout": true,
	"WaitAtCommit":      true,
	"WaitTimeout":       true,
}

func runWaitLoop(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			recv, name, ok := methodCall(info, call)
			if !ok || !waitMethodNames[name] || !isCondvarRecv(recv) {
				return true
			}
			if fd := enclosingFuncDecl(stack); isForwardingWrapper(fd, call) || isSyncFacadeMethod(info, fd) {
				return true // facade layer: the loop is the caller's obligation
			}
			if !inLoop(info, call, stack) {
				pass.Report(call.Pos(), "waitloop",
					"%s.%s outside a for loop: wake-ups are oblivious, so the predicate must be re-checked in a loop around the wait (lost-wakeup hazard)",
					recv.Obj().Name(), name)
			}
			return true
		})
	}
}

// inLoop reports whether the call site sits inside a for/range statement
// of its enclosing function, treating atomic-block and Sync.Exec literals
// as transparent.
func inLoop(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch a := stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit:
			// Transparent only when the literal is the body of an atomic
			// block or a Sync.Exec continuation; any other literal is an
			// independent function and ends the search.
			if i == 0 || !transparentLit(info, a, stack[i-1]) {
				return false
			}
		case *ast.FuncDecl:
			return false
		}
	}
	return false
}

// transparentLit reports whether lit is an argument of a call that runs it
// inline with the caller's control flow (atomic blocks, Sync.Exec).
func transparentLit(info *types.Info, lit *ast.FuncLit, parent ast.Node) bool {
	call, ok := parent.(*ast.CallExpr)
	if !ok {
		return false
	}
	isArg := false
	for _, a := range call.Args {
		if a == lit {
			isArg = true
		}
	}
	if !isArg {
		return false
	}
	if _, kind := atomicBlock(info, call); kind != notAtomic {
		return true
	}
	if _, name, ok := methodCall(info, call); ok && name == "Exec" {
		return true
	}
	return false
}
