// Fixture for the txescape analyzer: *stm.Tx handles are only valid for
// the duration of one atomic-block attempt and must not outlive it.
package txescape

import (
	"repro/internal/stm"
)

type holder struct{ tx *stm.Tx }

var globalTx *stm.Tx

var sink holder

func inspect(tx *stm.Tx) {}

func bad(e *stm.Engine, ch chan *stm.Tx, txs []*stm.Tx) {
	e.MustAtomic(func(tx *stm.Tx) {
		sink.tx = tx   // want "escapes"
		globalTx = tx  // want "package-level"
		txs[0] = tx    // want "escapes"
		ch <- tx       // want "channel"
		go inspect(tx) // want "goroutine"
		go func() {    // want "goroutine"
			_ = tx
		}()
	})
}

// A one-stripe body's Tx dies with the body too.
func badStripe(e *stm.Engine, v *stm.Var[int]) {
	e.AtomicStripe(v.Stripe(), func(tx *stm.Tx) {
		globalTx = tx // want "package-level"
	})
}

// good: synchronous helpers, same-attempt literals, and goroutines that
// open their own transaction are all fine.
func good(e *stm.Engine) {
	e.MustAtomic(func(tx *stm.Tx) {
		inspect(tx)
		recheck := func() { inspect(tx) } // not a goroutine: runs in-attempt
		recheck()
		go func() {
			e.MustAtomic(func(tx2 *stm.Tx) { inspect(tx2) })
		}()
	})
}
