package stm

import (
	"sync"
	"testing"
	"time"
)

// Tests for internal mechanics: orec word encoding, hashing, backoff,
// extension failure, and pool hygiene.

func TestOrecWordEncoding(t *testing.T) {
	if isLocked(packVersion(5)) {
		t.Fatal("version word reads as locked")
	}
	if got := versionOf(packVersion(5)); got != 5 {
		t.Fatalf("versionOf = %d, want 5", got)
	}
	lw := lockWord(42)
	if !isLocked(lw) {
		t.Fatal("lock word reads as unlocked")
	}
	if got := ownerOf(lw); got != 42 {
		t.Fatalf("ownerOf = %d, want 42", got)
	}
}

func TestOrecReleaseAndCAS(t *testing.T) {
	var o orec
	if !o.cas(0, lockWord(7)) {
		t.Fatal("CAS on fresh orec failed")
	}
	if o.cas(0, lockWord(8)) {
		t.Fatal("CAS succeeded against stale expected value")
	}
	o.release(9)
	w := o.load()
	if isLocked(w) || versionOf(w) != 9 {
		t.Fatalf("after release word = %#x", w)
	}
}

func TestOrecIndexInRange(t *testing.T) {
	const mask = (1 << 10) - 1
	seen := make(map[uint64]bool)
	for seq := uint64(1); seq < 10000; seq++ {
		idx := orecIndex(seq, mask)
		if idx > mask {
			t.Fatalf("index %d out of range", idx)
		}
		seen[idx] = true
	}
	// The multiplicative hash must spread: expect most buckets hit.
	if len(seen) < 900 {
		t.Fatalf("hash used only %d of 1024 buckets", len(seen))
	}
}

func TestVarsShareOrecsWhenTableIsSmall(t *testing.T) {
	e := NewEngine(Config{OrecCount: 1})
	a := NewVar(e, 0)
	b := NewVar(e, 0)
	if a.base.o != b.base.o {
		t.Fatal("distinct orecs with a one-entry table")
	}
	big := NewEngine(Config{OrecCount: 1 << 16})
	c := NewVar(big, 0)
	d := NewVar(big, 0)
	if c.base.o == d.base.o {
		t.Fatal("adjacent vars collided in a 64Ki table (hash degenerate)")
	}
}

// TestExtensionFailureAborts drives the path where a snapshot extension
// cannot succeed because a read value itself changed.
func TestExtensionFailureAborts(t *testing.T) {
	e := NewEngine(Config{OrecCount: 1 << 16})
	x := NewVar(e, 1)
	b := NewVar(e, 0)
	step := make(chan struct{})
	go func() {
		<-step
		// Change BOTH x (invalidating the read) and b (forcing the
		// version check on the upcoming write).
		e.MustAtomic(func(tx *Tx) {
			Write(tx, x, 2)
			Write(tx, b, 5)
		})
		step <- struct{}{}
	}()
	attempts := 0
	e.MustAtomic(func(tx *Tx) {
		attempts++
		_ = Read(tx, x)
		if attempts == 1 {
			step <- struct{}{}
			<-step
		}
		// b's version is now ahead of the snapshot; the extension
		// revalidates x, finds it changed, and the attempt aborts.
		Write(tx, b, Read(tx, b)+1)
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (extension must fail and retry)", attempts)
	}
	if got := b.LoadDirect(); got != 6 {
		t.Fatalf("b = %d, want 6", got)
	}
}

// TestTxPoolReuseIsClean hammers transactions with handlers, cancels and
// early commits to verify no state leaks across pooled Tx reuse.
func TestTxPoolReuseIsClean(t *testing.T) {
	e := NewEngine(Config{})
	v := NewVar(e, 0)
	handlerRuns := 0
	for i := 0; i < 500; i++ {
		switch i % 3 {
		case 0:
			e.MustAtomic(func(tx *Tx) {
				Write(tx, v, i)
				tx.OnCommit(func() { handlerRuns++ })
			})
		case 1:
			_ = e.Atomic(func(tx *Tx) {
				Write(tx, v, -1)
				tx.OnCommit(func() { t.Error("handler from cancelled txn ran") })
				tx.Cancel(errTestStm("x"))
			})
		default:
			e.MustAtomic(func(tx *Tx) {
				Write(tx, v, i)
				tx.CommitEarly()
			})
		}
	}
	if handlerRuns != 167 {
		t.Fatalf("handlerRuns = %d, want 167", handlerRuns)
	}
}

type errTestStm string

func (e errTestStm) Error() string { return string(e) }

// TestConcurrentMixedModes runs optimistic, relaxed, read-only and
// retrying transactions against each other.
func TestConcurrentMixedModes(t *testing.T) {
	e := NewEngine(Config{})
	v := NewVar(e, 0)
	target := NewVar(e, false)
	var wg sync.WaitGroup
	// Updaters.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if i%10 == 0 {
					e.AtomicRelaxed(func(tx *Tx) { Write(tx, v, Read(tx, v)+1) })
				} else {
					e.MustAtomic(func(tx *Tx) { Write(tx, v, Read(tx, v)+1) })
				}
			}
		}()
	}
	// Read-only auditors.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e.AtomicRead(func(tx *Tx) { _ = Read(tx, v) })
			}
		}()
	}
	// A retrier waiting for the end.
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.MustAtomic(func(tx *Tx) {
			if !Read(tx, target) {
				Retry(tx)
			}
		})
	}()
	// Let the updaters finish, then release the retrier.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for v.LoadDirect() < 600 {
		time.Sleep(time.Millisecond)
	}
	e.MustAtomic(func(tx *Tx) { Write(tx, target, true) })
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("mixed-mode workload wedged")
	}
	if got := v.LoadDirect(); got != 600 {
		t.Fatalf("v = %d, want 600", got)
	}
}
