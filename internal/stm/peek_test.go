package stm

import "testing"

// Peek on a quiescent Var returns the committed value — after an
// optimistic commit and after a serial one — and commits nothing.
func TestPeekCommitted(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 1)
		check := func(want int) {
			t.Helper()
			commits := e.Stats.Commits.Load()
			got, ok := Peek(v)
			if !ok || got != want {
				t.Fatalf("Peek = (%d, %v), want (%d, true)", got, ok, want)
			}
			if d := e.Stats.Commits.Load() - commits; d != 0 {
				t.Fatalf("Peek counted %d commits, want 0", d)
			}
		}
		check(1)
		e.MustAtomic(func(tx *Tx) { Write(tx, v, 2) })
		check(2)
		_ = e.AtomicRelaxed(func(tx *Tx) { Write(tx, v, 3) })
		check(3)
	})
}

// A serial transaction writes in place without locking the orec, so
// while its body is held after the write only serialPending tells a
// Peek that the value it loaded is not committed. Without the flag
// check Peek returns the serial body's write with ok=true.
func TestPeekSerialWriterInFlight(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 0)
		wrote, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			_ = e.AtomicRelaxed(func(tx *Tx) {
				Write(tx, v, 7)
				close(wrote)
				<-release
			})
		}()
		<-wrote
		if got, ok := Peek(v); ok {
			t.Errorf("Peek during a serial body's write = (%d, true), want ok=false", got)
		}
		close(release)
		<-done
		if got, ok := Peek(v); !ok || got != 7 {
			t.Errorf("Peek after the serial commit = (%d, %v), want (7, true)", got, ok)
		}
	})
}

// An optimistic body that has written v holds v's orec on the
// write-through engine (encounter-time locking), so Peek reports
// ok=false. The HTM engine buffers the write until commit and locks
// nothing, so Peek still reads the committed value there. Either way the
// body's write shows only once it commits.
func TestPeekOptimisticWriterInFlight(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 0)
		wrote, release, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			first := true
			e.MustAtomic(func(tx *Tx) {
				Write(tx, v, 5)
				if first {
					first = false
					close(wrote)
					<-release
				}
			})
		}()
		<-wrote
		got, ok := Peek(v)
		switch e.Config().Algorithm {
		case AlgHTM:
			if !ok || got != 0 {
				t.Errorf("Peek beside a buffered HTM write = (%d, %v), want (0, true)", got, ok)
			}
		default:
			if ok {
				t.Errorf("Peek on an orec a live writer holds = (%d, true), want ok=false", got)
			}
		}
		close(release)
		<-done
		if got, ok := Peek(v); !ok || got != 5 {
			t.Errorf("Peek after the commit = (%d, %v), want (5, true)", got, ok)
		}
	})
}
