package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerLostWakeup flags a transactional write to a Wait-predicate
// variable with no notify reachable before the enclosing function
// returns. If some atomic body reads an stm.Var while deciding to
// WaitTx/WaitAtCommit, that Var is a predicate cell: whoever commits a
// write to it may have made a parked waiter's predicate true, and owes
// the condvar a NotifyOne/NotifyAll — otherwise the waiter sleeps until
// an unrelated wake happens to come along, or forever. This is the
// static complement of the live wait-chain dump (/debug/cv/waiters):
// the dump shows the stuck waiter at run time, this check finds the
// writer that forgot to signal at lint time.
//
// The analysis is interprocedural both ways (DESIGN.md §12): predicate
// reads are collected module-wide, writes hidden in helpers called from
// a transaction body are found through the writes-predicate-vars
// summary, and a notify performed by any helper the function calls
// (at any depth) counts as reachable.
//
// Approximations, chosen to keep false positives rare:
//
//   - "Reachable before return" is flow-insensitive: a notify anywhere
//     in the enclosing function (including tx.OnCommit handlers and code
//     after the atomic block) or in any function it calls exempts every
//     predicate write in that function.
//   - Any notify counts, on any condvar, as does a raw sem.Post — the
//     check does not track which condvar guards which predicate cell.
//   - Writes that only make predicates false (pure consumers) cannot be
//     distinguished from writes that make them true; consumers that
//     notify nobody are reported too, which in a bounded-buffer design
//     is almost always a real bug (the Get side must wake notFull).
//
// False-positive policy: methods of synchronization facades (types with
// their own Wait method) are exempt — there the notify is the caller's
// obligation. A deliberate silent write (e.g. statistics piggybacked on
// a predicate cell) should carry a cvlint:ignore lostwakeup directive
// with its justification.
var AnalyzerLostWakeup = &Analyzer{
	Name: "lostwakeup",
	Doc:  "detect predicate-variable writes with no notify reachable before return",
	Run:  runLostWakeup,
}

func runLostWakeup(pass *Pass) {
	mod := pass.Mod
	if mod == nil {
		return
	}
	predVars := mod.predicateVars()
	if len(predVars) == 0 {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lit, kind := atomicBlock(info, call)
			if lit == nil || kind != atomicOptimistic {
				return true
			}
			fd := enclosingFuncDecl(append(stack, call))
			if isSyncFacadeMethod(info, fd) {
				return true
			}
			if fd != nil && notifyReachable(mod, info, fd.Body) {
				return true
			}
			if fd == nil && notifyReachable(mod, info, lit.Body) {
				return true
			}
			reportSilentWrites(pass, info, lit, predVars)
			return true
		})
	}
}

// notifyReachable reports whether body contains — anywhere, including
// handler literals — a condvar notify, a semaphore post, or a call to a
// module function whose summary carries one.
func notifyReachable(mod *Module, info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, name, isM := methodCall(info, call); isM {
			if isCondvarRecv(recv) && notifyMethodNames[name] {
				found = true
				return false
			}
			if recv.Obj().Name() == "Sem" && pathIs(recv.Obj().Pkg(), semPathSuffix) && name == "Post" {
				found = true
				return false
			}
		}
		for _, callee := range resolveCallees(mod, info, call, nil) {
			if sum := mod.summaryOf(callee); sum.Has(EffNotify | EffSemPost) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// reportSilentWrites reports each write to a predicate variable in one
// atomic body: direct stm.Write/stm.Modify calls, and calls to helpers
// whose summary writes one.
func reportSilentWrites(pass *Pass, info *types.Info, body *ast.FuncLit, predVars map[types.Object][]token.Pos) {
	mod := pass.Mod
	ast.Inspect(body.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if handlerLit(info, call) != nil {
			return false
		}
		if pkgPath, name, isPkg := pkgFuncCall(info, call); isPkg {
			if pathStrIs(pkgPath, stmPathSuffix) && (name == "Write" || name == "Modify") && len(call.Args) >= 2 {
				if obj := varObject(info, call.Args[1]); obj != nil {
					if reads, isPred := predVars[obj]; isPred {
						pass.Report(call.Pos(), "lostwakeup",
							"transaction writes predicate variable %s (read by the Wait predicate at %s) but no Notify/Signal is reachable before return: a parked waiter whose predicate just became true stays asleep",
							obj.Name(), mod.relPosition(pass.Pkg.Fset, reads[0]))
					}
				}
			}
			return true
		}
		for _, callee := range resolveCallees(mod, info, call, nil) {
			sum := mod.summaryOf(callee)
			if sum == nil {
				continue
			}
			for obj := range sum.writesVars {
				reads, isPred := predVars[obj]
				if !isPred {
					continue
				}
				pass.Report(call.Pos(), "lostwakeup",
					"call to %s writes predicate variable %s via %s (read by the Wait predicate at %s) but no Notify/Signal is reachable before return: a parked waiter whose predicate just became true stays asleep",
					callee.Name(), obj.Name(), mod.writeChain(pass.Pkg.Fset, callee, obj), mod.relPosition(pass.Pkg.Fset, reads[0]))
			}
		}
		return true
	})
}
