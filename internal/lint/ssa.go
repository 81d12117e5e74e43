// Interprocedural substrate: a module-wide function model in the role
// golang.org/x/tools/go/ssa would play, rebuilt on go/ast + go/types only
// (this module is deliberately dependency-free; see DESIGN.md §12). For
// the disciplines cvlint enforces, the analysis currency is not values
// but *effects* — "posts a semaphore", "blocks", "stores its Tx" — so the
// per-function IR is an effect vector plus a call-site list, and the
// whole-program analysis is a bottom-up fixpoint over the call graph's
// strongly connected components (callgraph.go, summary.go).
//
// Extraction rules, in order of precedence:
//
//   - Base-effect calls (the sanctioned API surface: sem.Sem posts/waits,
//     condvar notifies/waits, obs.Tracer emits, registry mutators,
//     Engine.Atomic*) are classified by the effect table and NOT descended
//     into. Their implementations are full of locks, trace emits and
//     fault windows that are the primitive's business, not the caller's;
//     summarizing them would drown the discipline-level signal. The
//     transactional condvar waits (WaitTx, WaitAtCommit) are effect-free
//     by construction — parking after CommitEarly / inside OnCommit is
//     the paper's entire point.
//   - Function literals passed to tx.OnCommit / tx.OnAbort run outside
//     the attempt: nothing inside them contributes an attempt-time
//     effect.
//   - Everything lexically after a tx.CommitEarly() call in the same
//     function runs post-commit (Section 4.1's early-commit wait path)
//     and is likewise excluded.
//   - A `go` statement is itself the effect (EffGo: one goroutine per
//     attempt); the spawned body's effects happen on another goroutine
//     and are not the attempt's.
//   - A cvlint:ignore directive on an effect's source line suppresses
//     that effect's *summary contribution* for the named check, so a
//     justified ignore at the effect site silences every interprocedural
//     report that would be rooted through it.
//
// Other function literals (immediately invoked, assigned then called,
// passed to executors) are attributed to the enclosing function —
// conservative in the direction that finds bugs.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Effect is one bit of a function's effect vector.
type Effect uint

const (
	EffIO           Effect = 1 << iota // fmt.Print*/Fprint*, os.*, print/println
	EffChanSend                        // send on a channel
	EffSemPost                         // sem.Sem Post
	EffTrace                           // obs.Tracer Emit/EmitEvent
	EffRegistry                        // registry.Registry Register*/Unregister*/Set*
	EffSleep                           // time.Sleep
	EffGo                              // launches a goroutine
	EffBlock                           // parking wait (sem.Wait, lock-based condvar waits)
	EffNestedAtomic                    // Engine-level Atomic/MustAtomic/AtomicRead/AtomicStripe/AtomicRelaxed
	EffStoreTx                         // stores/sends/hands off a *stm.Tx it received
	EffNotify                          // condvar NotifyOne/NotifyAll/Signal/Broadcast/...
)

// effImpure are the observable, attempt-repeating effects impuretxn
// reports; effBlocking are the hazards lockorder reports.
const (
	effImpure   = EffIO | EffChanSend | EffSemPost | EffTrace | EffRegistry | EffSleep | EffGo
	effBlocking = EffBlock | EffNestedAtomic
)

// checkFor maps an effect to the analyzer that would report it, for
// cvlint:ignore suppression at the effect site.
func checkFor(e Effect) string {
	switch {
	case e&effImpure != 0:
		return "impuretxn"
	case e&effBlocking != 0:
		return "lockorder"
	case e == EffStoreTx:
		return "txescape"
	}
	return ""
}

// origin is one witness for an effect: either a direct site in the
// function (callee nil) or a call whose target carries the effect.
type origin struct {
	pos    token.Pos
	desc   string      // "sem.Post", "os.Getenv", "go statement", ...
	callee *types.Func // non-nil: effect inherited through this call
}

// callSite is one resolved outgoing call.
type callSite struct {
	pos     token.Pos
	callees []*types.Func
}

// funcFacts is the per-function IR: direct effects, transactional
// predicate-variable writes, and outgoing calls.
type funcFacts struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl

	effects    map[Effect][]origin
	writesVars map[types.Object][]origin
	calls      []callSite
}

// Module is the whole-program view: every package the loader touched,
// a function index, and (lazily) the fixpoint effect summaries.
type Module struct {
	pkgs   []*Package
	modDir string // module root; witness positions render relative to it
	facts  map[*types.Func]*funcFacts

	summaries map[*types.Func]*Summary
	predVars  map[types.Object][]token.Pos // stm.Vars read by Wait predicates
	chaCache  map[string][]*types.Func
}

// NewModule builds the function index over every package the loader has
// loaded plus any extra explicitly loaded targets.
func NewModule(l *Loader, extra ...*Package) *Module {
	m := &Module{
		modDir:   l.ModDir,
		facts:    map[*types.Func]*funcFacts{},
		chaCache: map[string][]*types.Func{},
	}
	seen := map[*Package]bool{}
	for _, pkg := range append(append([]*Package{}, l.Loaded()...), extra...) {
		if pkg == nil || seen[pkg] {
			continue
		}
		seen[pkg] = true
		m.pkgs = append(m.pkgs, pkg)
	}
	for _, pkg := range m.pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				m.facts[obj] = &funcFacts{fn: obj, pkg: pkg, decl: fd}
			}
		}
	}
	for _, ff := range m.facts {
		m.extract(ff)
	}
	return m
}

// addEffect records a direct effect origin unless an ignore directive at
// the site suppresses its summary contribution.
func (m *Module) addEffect(ff *funcFacts, e Effect, pos token.Pos, desc string) {
	if check := checkFor(e); check != "" && ff.pkg.ignoredAt(pos, check) {
		return
	}
	if ff.effects == nil {
		ff.effects = map[Effect][]origin{}
	}
	ff.effects[e] = append(ff.effects[e], origin{pos: pos, desc: desc})
}

func (ff *funcFacts) addWrite(obj types.Object, pos token.Pos) {
	if ff.writesVars == nil {
		ff.writesVars = map[types.Object][]origin{}
	}
	ff.writesVars[obj] = append(ff.writesVars[obj], origin{pos: pos, desc: obj.Name()})
}

// extract walks one function body and fills in its facts.
func (m *Module) extract(ff *funcFacts) {
	info := ff.pkg.Info
	commitEarly := commitEarlyPos(info, ff.decl.Body)
	bind := localFuncBindings(info, ff.decl.Body)

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if commitEarly.IsValid() && n.Pos() > commitEarly {
			return false // post-commit: Section 4.1 early-commit tail
		}
		switch n := n.(type) {
		case *ast.SendStmt:
			m.addEffect(ff, EffChanSend, n.Pos(), "channel send")
		case *ast.GoStmt:
			m.addEffect(ff, EffGo, n.Pos(), "go statement")
			if txArg := goStmtTx(info, n); txArg != "" {
				m.addEffect(ff, EffStoreTx, n.Pos(), "goroutine hand-off of "+txArg)
			}
			for _, a := range n.Call.Args {
				ast.Inspect(a, walk)
			}
			return false // spawned body runs on another goroutine
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) && isStmTx(info.TypeOf(rhs)) && txEscapeLHS(info, ff.pkg, n.Lhs[i]) {
					m.addEffect(ff, EffStoreTx, n.Pos(), "*stm.Tx store to "+exprString(n.Lhs[i]))
				}
			}
		case *ast.CallExpr:
			m.extractCall(ff, n, bind, walk)
			return false
		}
		return true
	}
	ast.Inspect(ff.decl.Body, walk)
}

// extractCall classifies one call: base effect, handler registration,
// nested atomic, predicate-var write, or an ordinary call-graph edge.
// walk is re-entered for the argument subtrees that still execute in the
// attempt.
func (m *Module) extractCall(ff *funcFacts, call *ast.CallExpr, bind map[types.Object][]*types.Func, walk func(ast.Node) bool) {
	info := ff.pkg.Info
	walkArgs := func(skip ast.Node) {
		for _, a := range call.Args {
			if a != skip {
				ast.Inspect(a, walk)
			}
		}
		// Receiver/fun side expressions (rare effects) are cheap to visit.
		ast.Inspect(call.Fun, func(n ast.Node) bool {
			if _, ok := n.(*ast.CallExpr); ok {
				walk(n)
				return false
			}
			return true
		})
	}

	// Builtins and package-level functions.
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			if b.Name() == "print" || b.Name() == "println" {
				m.addEffect(ff, EffIO, call.Pos(), b.Name())
			}
			walkArgs(nil)
			return
		}
	}
	if pkgPath, name, ok := pkgFuncCall(info, call); ok {
		switch {
		case pkgPath == "fmt" && (strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")):
			m.addEffect(ff, EffIO, call.Pos(), "fmt."+name)
		case pkgPath == "os":
			m.addEffect(ff, EffIO, call.Pos(), "os."+name)
		case pkgPath == "time" && name == "Sleep":
			m.addEffect(ff, EffSleep, call.Pos(), "time.Sleep")
		case pathStrIs(pkgPath, stmPathSuffix) && (name == "Write" || name == "Modify"):
			if len(call.Args) >= 2 {
				if obj := varObject(info, call.Args[1]); obj != nil {
					ff.addWrite(obj, call.Pos())
				}
			}
		default:
			if fn, _ := info.Uses[calledIdent(call)].(*types.Func); fn != nil && m.facts[fn] != nil {
				ff.calls = append(ff.calls, callSite{pos: call.Pos(), callees: []*types.Func{fn}})
			}
		}
		walkArgs(nil)
		return
	}

	// Method calls: consult the base-effect table first.
	if recv, name, ok := methodCall(info, call); ok {
		if eff, desc, isBase := baseEffect(recv, name); isBase {
			if eff != 0 {
				m.addEffect(ff, eff, call.Pos(), desc)
			}
			// Engine.Atomic*: the literal is the *inner* transaction's
			// body — analyzed in its own right, not summarized here.
			// Tx.Atomic is flat nesting: its literal runs in this very
			// attempt, so walk it. Tx.OnCommit/OnAbort handlers run
			// outside the attempt entirely.
			switch {
			case eff == EffNestedAtomic:
				if lit, _ := atomicBlock(info, call); lit != nil {
					walkArgs(lit)
					return
				}
			case isStmTxRecv(recv) && name == "Atomic":
				walkArgs(nil)
				return
			case handlerLit(info, call) != nil:
				walkArgs(handlerLit(info, call))
				return
			case isStmTxRecv(recv) && (name == "OnCommit" || name == "OnCommitCall" || name == "OnAbort"):
				// Handler given as a method value / func ident (always so
				// for OnCommitCall's pre-bound form): still deferred;
				// nothing of it runs in the attempt.
				return
			}
			walkArgs(nil)
			return
		}
		if fn, _ := info.Uses[calledIdent(call)].(*types.Func); fn != nil && m.facts[fn] != nil {
			ff.calls = append(ff.calls, callSite{pos: call.Pos(), callees: []*types.Func{fn}})
			walkArgs(nil)
			return
		}
		// Interface method: class-hierarchy resolution over the module.
		if callees := m.resolveInterfaceCall(info, call); len(callees) > 0 {
			ff.calls = append(ff.calls, callSite{pos: call.Pos(), callees: callees})
		}
		walkArgs(nil)
		return
	}

	// Plain (same-package or dot-imported) function calls: post2(s).
	if id := calledIdent(call); id != nil {
		if fn, _ := info.Uses[id].(*types.Func); fn != nil {
			if m.facts[fn] != nil {
				ff.calls = append(ff.calls, callSite{pos: call.Pos(), callees: []*types.Func{fn}})
			}
			walkArgs(nil)
			return
		}
	}

	// Calls through local function values: f := s.Post; f().
	if id, ok := call.Fun.(*ast.Ident); ok {
		if obj := info.ObjectOf(id); obj != nil {
			var known []*types.Func
			for _, fn := range bind[obj] {
				if recvN, mname, isM := methodOf(fn); isM {
					if eff, desc, isBase := baseEffect(recvN, mname); isBase {
						if eff != 0 {
							m.addEffect(ff, eff, call.Pos(), desc+" (via method value "+id.Name+")")
						}
						continue
					}
				}
				if m.facts[fn] != nil {
					known = append(known, fn)
				}
			}
			if len(known) > 0 {
				ff.calls = append(ff.calls, callSite{pos: call.Pos(), callees: known})
			}
		}
	}
	walkArgs(nil)
}

// calledIdent returns the identifier being invoked: the bare ident, the
// selector's Sel, or the ident under a generic instantiation index.
func calledIdent(call *ast.CallExpr) *ast.Ident {
	fun := call.Fun
	for {
		switch f := fun.(type) {
		case *ast.Ident:
			return f
		case *ast.SelectorExpr:
			return f.Sel
		case *ast.IndexExpr:
			fun = f.X
		case *ast.IndexListExpr:
			fun = f.X
		case *ast.ParenExpr:
			fun = f.X
		default:
			return nil
		}
	}
}

// commitEarlyPos returns the position of the first tx.CommitEarly() call
// in body, or token.NoPos.
func commitEarlyPos(info *types.Info, body *ast.BlockStmt) token.Pos {
	pos := token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, name, isM := methodCall(info, call); isM && name == "CommitEarly" && isStmTxRecv(recv) {
			if !pos.IsValid() || call.Pos() < pos {
				pos = call.Pos()
			}
		}
		return true
	})
	return pos
}

// localFuncBindings maps local variables to the statically known
// functions assigned to them (method values and function identifiers),
// for resolving f := s.Post; f().
func localFuncBindings(info *types.Info, body *ast.BlockStmt) map[types.Object][]*types.Func {
	bind := map[types.Object][]*types.Func{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := info.ObjectOf(id)
		if obj == nil {
			return
		}
		switch r := rhs.(type) {
		case *ast.SelectorExpr:
			if s := info.Selections[r]; s != nil && s.Kind() == types.MethodVal {
				if fn, _ := s.Obj().(*types.Func); fn != nil {
					bind[obj] = append(bind[obj], fn)
				}
			} else if fn, _ := info.Uses[r.Sel].(*types.Func); fn != nil {
				bind[obj] = append(bind[obj], fn)
			}
		case *ast.Ident:
			if fn, _ := info.Uses[r].(*types.Func); fn != nil {
				bind[obj] = append(bind[obj], fn)
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i := range n.Rhs {
				if i < len(n.Lhs) {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range n.Values {
				if i < len(n.Names) {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return bind
}

// goStmtTx reports (by name) a *stm.Tx handed to a spawned goroutine via
// argument or capture, or "".
func goStmtTx(info *types.Info, g *ast.GoStmt) string {
	for _, arg := range g.Call.Args {
		if isStmTx(info.TypeOf(arg)) {
			return exprString(arg)
		}
	}
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		name := ""
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, isID := n.(*ast.Ident)
			if !isID || name != "" {
				return name == ""
			}
			if obj, isVar := info.Uses[id].(*types.Var); isVar && isStmTx(obj.Type()) {
				if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
					name = id.Name
				}
			}
			return name == ""
		})
		return name
	}
	return ""
}

// txEscapeLHS reports whether assigning a Tx to lhs stores it into memory
// that outlives the atomic block (field, container element, package-level
// variable).
func txEscapeLHS(info *types.Info, pkg *Package, lhs ast.Expr) bool {
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return true
	case *ast.Ident:
		obj := info.ObjectOf(lhs)
		return obj != nil && pkg.Types != nil && obj.Parent() == pkg.Types.Scope()
	}
	return false
}
