package facility

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/pthreadcv"
	"repro/internal/syncx"
)

// TestToolkitSpuriousInjectorPlumbed: the injector set on the toolkit
// must reach the pthread condvars and force spurious wake-ups.
func TestToolkitSpuriousInjectorPlumbed(t *testing.T) {
	inj := pthreadcv.NewSpuriousInjector(1.0, 5)
	inj.MaxDelay = 100 * time.Microsecond
	tk := &Toolkit{Kind: LockPthread, Spurious: inj}
	c := tk.NewCond()
	var m syncx.Mutex
	done := make(chan struct{})
	go func() {
		m.Lock()
		c.Wait(&m) // must return spuriously; nobody signals
		m.Unlock()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("injector not plumbed: wait never returned")
	}
}

// TestSpuriousInjectionThroughFacilities: a full facility (queue) built on
// the injected baseline stays correct — the defensive loops absorb the
// storm.
func TestSpuriousInjectionThroughFacilities(t *testing.T) {
	inj := pthreadcv.NewSpuriousInjector(0.5, 77)
	inj.MaxDelay = 50 * time.Microsecond
	tk := &Toolkit{Kind: LockPthread, Spurious: inj}
	q := NewQueue[int](tk, 2)
	const items = 300
	var sum atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= items; i++ {
			q.Put(i)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < items; i++ {
			x, ok := q.Get()
			if !ok {
				t.Error("Get failed")
				return
			}
			sum.Add(int64(x))
		}
	}()
	wg.Wait()
	if want := int64(items) * (items + 1) / 2; sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}
