package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerImpureTxn flags observable side effects inside a transaction
// body. An optimistic transaction body may run many times (conflict
// retries) or zero observable times (abort), so anything a failed attempt
// cannot undo must be routed through tx.OnCommit — exactly the paper's
// treatment of SEMPOST (Algorithm 5 line 9). The check reports, inside a
// function literal passed to Engine.Atomic/MustAtomic/AtomicRead or
// Tx.Atomic:
//
//   - channel sends;
//   - fmt.Print*/Fprint* and the print/println builtins;
//   - any call into package os;
//   - time.Sleep;
//   - goroutine launches (one new goroutine per conflict retry);
//   - sem.Sem Post (and Wait, which can deadlock a retrying body);
//   - obs.Tracer Emit/EmitEvent/EmitFlow (trace events are observable
//     effects; the attempt-buffered tx.Trace / tx.TraceFlow are the
//     transactional emission APIs);
//   - registry.Registry Register*/Unregister*/Set* (registry mutation
//     repeats on every retry; register metric sources at construction
//     time, outside transactions).
//
// The analysis is interprocedural: every call out of the body is checked
// against the callee's bottom-up effect summary (DESIGN.md §12), so an
// effect factored into a helper — at any call depth, through method
// values and local function variables too — is reported at the call
// site, with the call path to the effect in the message.
//
// False-positive policy: AtomicRelaxed bodies are exempt (relaxed
// transactions are irrevocable and may perform I/O, Section 4.2); handler
// literals passed to tx.OnCommit/tx.OnAbort are exempt (they run outside
// the attempt), and so is helper code lexically after a tx.CommitEarly()
// call; tx.Trace is exempt by construction (it buffers in the attempt and
// flushes only on commit, mirroring the SEMPOST deferral). A justified
// cvlint:ignore at an effect's source line suppresses both the direct
// diagnostic and every interprocedural report rooted through that line.
var AnalyzerImpureTxn = &Analyzer{
	Name: "impuretxn",
	Doc:  "detect observable side effects inside transaction bodies (interprocedural)",
	Run:  runImpureTxn,
}

func runImpureTxn(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			lit, kind := atomicBlock(info, call)
			if lit == nil || kind != atomicOptimistic {
				return true
			}
			checkTxnBody(pass, info, lit)
			return true
		})
	}
}

// checkTxnBody walks one transaction body, skipping OnCommit/OnAbort
// handler literals (their bodies execute outside the attempt).
func checkTxnBody(pass *Pass, info *types.Info, body *ast.FuncLit) {
	bindings := localFuncBindings(info, body.Body)
	commitEarly := commitEarlyPos(info, body.Body)
	ast.Inspect(body.Body, func(n ast.Node) bool {
		if n != nil && commitEarly.IsValid() && n.Pos() > commitEarly {
			return false // post-commit tail: runs exactly once, after the attempt wins
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Report(n.Pos(), "impuretxn",
				"channel send inside a transaction body: the body may run multiple times; send from a tx.OnCommit handler instead")
		case *ast.GoStmt:
			pass.Report(n.Pos(), "impuretxn",
				"goroutine launched inside a transaction body: one new goroutine starts per conflict retry; launch from a tx.OnCommit handler instead")
			return false
		case *ast.CallExpr:
			if handlerLit(info, n) != nil {
				return false // handler body runs outside the attempt
			}
			if !reportImpureCall(pass, info, n) {
				reportImpureSummary(pass, info, n, bindings)
			}
		}
		return true
	})
}

// reportImpureCall handles the direct effect classes; it reports whether
// the call was recognized (reported or deliberately exempted), so the
// caller knows not to consult summaries for it.
func reportImpureCall(pass *Pass, info *types.Info, call *ast.CallExpr) bool {
	// print/println builtins.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			if name := b.Name(); name == "print" || name == "println" {
				pass.Report(call.Pos(), "impuretxn",
					"%s inside a transaction body: output repeats on every conflict retry; defer via tx.OnCommit", name)
			}
			return true
		}
	}
	if pkgPath, name, ok := pkgFuncCall(info, call); ok {
		switch {
		case pkgPath == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
			pass.Report(call.Pos(), "impuretxn",
				"fmt.%s inside a transaction body: output repeats on every conflict retry; defer via tx.OnCommit", name)
			return true
		case pkgPath == "os":
			pass.Report(call.Pos(), "impuretxn",
				"os.%s inside a transaction body: I/O cannot be rolled back (and aborts a hardware transaction); use AtomicRelaxed or tx.OnCommit", name)
			return true
		case pkgPath == "time" && name == "Sleep":
			pass.Report(call.Pos(), "impuretxn",
				"time.Sleep inside a transaction body: the attempt holds orecs while sleeping, stalling every conflicting transaction")
			return true
		}
		return false
	}
	if recv, name, ok := methodCall(info, call); ok {
		if pathIs(recv.Obj().Pkg(), semPathSuffix) && recv.Obj().Name() == "Sem" {
			switch name {
			case "Post":
				pass.Report(call.Pos(), "impuretxn",
					"sem.%s inside a transaction body wakes threads even if the attempt aborts; register it with tx.OnCommit (Algorithm 5 line 9)", name)
				return true
			case "Wait", "WaitTimeout":
				pass.Report(call.Pos(), "impuretxn",
					"sem.%s inside a transaction body can sleep while holding orecs and deadlock against its own notifier; use CondVar.WaitTx", name)
				return true
			}
		}
		if pathIs(recv.Obj().Pkg(), obsPathSuffix) && recv.Obj().Name() == "Tracer" {
			switch name {
			case "Emit", "EmitEvent", "EmitFlow":
				pass.Report(call.Pos(), "impuretxn",
					"obs.Tracer.%s inside a transaction body records events of attempts that may abort; use tx.Trace, which buffers in the attempt and flushes on commit", name)
				return true
			}
		}
		if pathIs(recv.Obj().Pkg(), registryPathSuffix) && recv.Obj().Name() == "Registry" {
			if strings.HasPrefix(name, "Register") || strings.HasPrefix(name, "Unregister") || strings.HasPrefix(name, "Set") {
				pass.Report(call.Pos(), "impuretxn",
					"registry.Registry.%s inside a transaction body mutates the registry once per attempt, not once per commit; register sources at construction time or from a tx.OnCommit handler", name)
				return true
			}
		}
		// Any other base-type method (tx.Trace, cv.WaitTx, Var loads...)
		// is sanctioned API surface: recognized, nothing to report.
		if _, _, isBase := baseEffect(recv, name); isBase {
			return true
		}
	}
	return false
}

// reportImpureSummary consults the interprocedural effect summary of a
// call's resolved callees and reports any impure effect with the call
// path down to its witness site.
func reportImpureSummary(pass *Pass, info *types.Info, call *ast.CallExpr, bindings map[types.Object][]*types.Func) {
	mod := pass.Mod
	if mod == nil {
		return
	}
	for _, callee := range resolveCallees(mod, info, call, bindings) {
		// A method value bound to sanctioned API (f := s.Post; f()) is
		// the base effect itself, not a helper to summarize.
		if recv, name, isM := methodOf(callee); isM {
			if eff, desc, isBase := baseEffect(recv, name); isBase {
				if eff&effImpure != 0 {
					pass.Report(call.Pos(), "impuretxn",
						"%s invoked through a method value inside a transaction body: effects repeat on every conflict retry; defer via tx.OnCommit", desc)
				}
				continue
			}
		}
		sum := mod.summaryOf(callee)
		if !sum.Has(effImpure) {
			continue
		}
		for bit := Effect(1); bit <= sum.Effects; bit <<= 1 {
			if bit&effImpure == 0 || sum.Effects&bit == 0 {
				continue
			}
			pass.Report(call.Pos(), "impuretxn",
				"call to %s inside a transaction body reaches %s: effects repeat on every conflict retry; defer the effect via tx.OnCommit",
				callee.Name(), mod.effectChain(pass.Pkg.Fset, callee, bit))
		}
	}
}

// resolveCallees resolves a call expression to module functions with
// bodies: package functions, concrete methods, interface methods (CHA),
// and local function variables bound to statically known functions.
func resolveCallees(mod *Module, info *types.Info, call *ast.CallExpr, bindings map[types.Object][]*types.Func) []*types.Func {
	if id := calledIdent(call); id != nil {
		if fn, _ := info.Uses[id].(*types.Func); fn != nil {
			if mod.facts[fn] != nil {
				return []*types.Func{fn}
			}
			return nil
		}
		if obj := info.ObjectOf(id); obj != nil && bindings != nil {
			var out []*types.Func
			for _, fn := range bindings[obj] {
				if mod.facts[fn] != nil {
					out = append(out, fn)
				}
			}
			if len(out) > 0 {
				return out
			}
		}
	}
	return mod.resolveInterfaceCall(info, call)
}
