// Fixture for the impuretxn analyzer: observable side effects inside an
// optimistic transaction body must be routed through tx.OnCommit.
package impuretxn

import (
	"fmt"
	"os"
	"time"

	"repro/internal/sem"
	"repro/internal/stm"
)

func bad(e *stm.Engine, s *sem.Sem, ch chan int) {
	e.MustAtomic(func(tx *stm.Tx) {
		fmt.Println("attempt")       // want "fmt.Println"
		os.Getenv("HOME")            // want "os.Getenv"
		time.Sleep(time.Millisecond) // want "time.Sleep"
		s.Post()                     // want "sem.Post"
		s.Wait()                     // want "sem.Wait"
		ch <- 1                      // want "channel send"
		println("raw")               // want "println"
	})
}

// A one-stripe body runs once on a write-through engine, but through
// Atomic, and so perhaps many times, on an HTM one: its effects go
// through tx.OnCommit too.
func badStripe(e *stm.Engine, v *stm.Var[int], s *sem.Sem) {
	e.AtomicStripe(v.Stripe(), func(tx *stm.Tx) {
		stm.Write(tx, v, 1)
		s.Post() // want "sem.Post"
	})
}

func goodStripe(e *stm.Engine, v *stm.Var[int], s *sem.Sem) {
	e.AtomicStripe(v.Stripe(), func(tx *stm.Tx) {
		stm.Write(tx, v, 1)
		tx.OnCommit(s.Post)
	})
}

// good: handlers run outside the attempt, and relaxed transactions are
// irrevocable, so I/O is legal in both.
func good(e *stm.Engine, s *sem.Sem, ch chan int) {
	e.MustAtomic(func(tx *stm.Tx) {
		tx.OnCommit(func() {
			fmt.Println("committed")
			s.Post()
			ch <- 1
		})
		tx.OnAbort(func() {
			fmt.Println("rolled back")
		})
	})
	_ = e.AtomicRelaxed(func(tx *stm.Tx) {
		fmt.Println("irrevocable: I/O is legal here")
		time.Sleep(time.Microsecond)
	})
}
