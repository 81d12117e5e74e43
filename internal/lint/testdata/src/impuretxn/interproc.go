// Interprocedural cases for impuretxn: effects buried in helpers are
// found through the bottom-up effect summaries (DESIGN.md §12) and
// reported at the call site inside the transaction body, with the call
// path down to the witness effect in the message.
package impuretxn

import (
	"fmt"

	"repro/internal/sem"
	"repro/internal/stm"
)

// The post is two helper calls deep: body → post1 → post2 → sem.Post.
func post1(s *sem.Sem) { post2(s) }
func post2(s *sem.Sem) { s.Post() }

// Three deep, to pin the rendered hop chain.
func hop1(s *sem.Sem) { hop2(s) }
func hop2(s *sem.Sem) { hop3(s) }
func hop3(s *sem.Sem) { s.Post() }

func badBuried(e *stm.Engine, s *sem.Sem) {
	e.MustAtomic(func(tx *stm.Tx) {
		post1(s) // want "call to post1 inside a transaction body reaches post2 \(sem\.Post at .*interproc\.go:[0-9]+\)"
		hop1(s)  // want "reaches hop2 → hop3 \(sem\.Post at"
	})
}

// good: the same buried effect is legal when deferred to commit time —
// the helper then runs exactly once, after the attempt wins.
func goodBuriedDeferred(e *stm.Engine, s *sem.Sem) {
	e.MustAtomic(func(tx *stm.Tx) {
		tx.OnCommit(func() { post1(s) })
	})
}

// good: everything lexically after CommitEarly is the post-commit tail
// (Section 4.1) and runs exactly once.
func goodPostCommitTail(e *stm.Engine, s *sem.Sem) {
	e.MustAtomic(func(tx *stm.Tx) {
		tx.CommitEarly()
		post1(s)
		fmt.Println("committed")
	})
}

// A method value is the base effect itself, not a helper to summarize.
func badMethodValue(e *stm.Engine, s *sem.Sem) {
	e.MustAtomic(func(tx *stm.Tx) {
		post := s.Post
		post() // want "sem.Post invoked through a method value"
	})
}

// One goroutine per conflict retry: the launch is the effect, whether
// written in the body or buried in a helper.
func spawn() {
	go func() {}()
}

func badGo(e *stm.Engine) {
	e.MustAtomic(func(tx *stm.Tx) {
		go spawn() // want "goroutine launched inside a transaction body"
		spawn()    // want "call to spawn inside a transaction body reaches go statement at"
	})
}

// A justified ignore at the effect's source line silences every
// interprocedural report rooted through it.
func auditLog(msg string) {
	fmt.Println(msg) // cvlint:ignore impuretxn test-only audit sink, idempotent
}

func goodIgnoredAtSource(e *stm.Engine) {
	e.MustAtomic(func(tx *stm.Tx) {
		auditLog("won")
	})
}
