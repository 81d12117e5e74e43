package fault

import (
	"sync"
	"testing"
	"time"
)

// TestSameSeedSameSequence is the reproducibility contract: two
// injectors with the same seed and configuration draw bit-for-bit
// identical decision sequences at every point, and both match the pure
// Sequence generator.
func TestSameSeedSameSequence(t *testing.T) {
	const n = 4096
	rule := Rule{Rate: 0.37, Action: ActAbort, Delay: time.Millisecond}
	a := New(0xC0FFEE).SetAll(rule)
	b := New(0xC0FFEE).SetAll(rule)
	a.Arm()
	b.Arm()
	for p := Point(0); p < NumPoints; p++ {
		want := a.Sequence(p, n)
		for i := 0; i < n; i++ {
			da, db := a.At(p), b.At(p)
			if da != db {
				t.Fatalf("point %v draw %d: injector A=%+v B=%+v", p, i, da, db)
			}
			if da != want[i] {
				t.Fatalf("point %v draw %d: live=%+v Sequence=%+v", p, i, da, want[i])
			}
		}
	}
}

// TestDifferentSeedsDiverge sanity-checks that the seed actually feeds
// the decision function.
func TestDifferentSeedsDiverge(t *testing.T) {
	rule := Rule{Rate: 0.5, Action: ActAbort}
	a := New(1).SetAll(rule)
	b := New(2).SetAll(rule)
	sa := a.Sequence(PreCommit, 256)
	sb := b.Sequence(PreCommit, 256)
	same := true
	for i := range sa {
		if sa[i] != sb[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical 256-decision sequences")
	}
}

// TestConcurrentDrawsArePermutation: under concurrent arrival the set
// of decisions handed out at a point is exactly the set the sequence
// defines (each arrival gets some index n, every index is handed out
// once). With a homogeneous rule all decisions at a point are
// comparable by count.
func TestConcurrentDrawsArePermutation(t *testing.T) {
	const (
		goroutines = 8
		perG       = 2000
	)
	in := New(42).Set(PreCommit, Rule{Rate: 0.25, Action: ActAbort})
	in.Arm()
	var wg sync.WaitGroup
	var firedCount sync.Map
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			fired := 0
			for i := 0; i < perG; i++ {
				if in.At(PreCommit).Action == ActAbort {
					fired++
				}
			}
			firedCount.Store(g, fired)
		}(g)
	}
	wg.Wait()
	total := 0
	firedCount.Range(func(_, v any) bool { total += v.(int); return true })

	wantFired := 0
	for _, d := range in.Sequence(PreCommit, goroutines*perG) {
		if d.Action == ActAbort {
			wantFired++
		}
	}
	if total != wantFired {
		t.Fatalf("concurrent fired=%d, sequence says %d", total, wantFired)
	}
	if got := in.Drawn(PreCommit); got != goroutines*perG {
		t.Fatalf("Drawn=%d want %d", got, goroutines*perG)
	}
	if got := in.Fired(PreCommit); got != uint64(wantFired) {
		t.Fatalf("Fired=%d want %d", got, wantFired)
	}
}

func TestRateExtremes(t *testing.T) {
	always := New(7).Set(TxBegin, Rule{Rate: 1.0, Action: ActCapacity})
	always.Arm()
	for i := 0; i < 1000; i++ {
		if d := always.At(TxBegin); d.Action != ActCapacity {
			t.Fatalf("rate 1.0 draw %d: got %+v", i, d)
		}
	}
	never := New(7).Set(TxBegin, Rule{Rate: 0, Action: ActAbort})
	never.Arm()
	for i := 0; i < 1000; i++ {
		if d := never.At(TxBegin); d.Action != ActNone {
			t.Fatalf("rate 0 draw %d: got %+v", i, d)
		}
	}
	if never.Fired(TxBegin) != 0 || always.Fired(TxBegin) != 1000 {
		t.Fatalf("fired counters wrong: never=%d always=%d",
			never.Fired(TxBegin), always.Fired(TxBegin))
	}
}

// TestRateApproximate: a 30% rule fires roughly 30% of the time.
func TestRateApproximate(t *testing.T) {
	in := New(99).Set(SemPost, Rule{Rate: 0.3, Action: ActAbort})
	in.Arm()
	const n = 20000
	fired := 0
	for i := 0; i < n; i++ {
		if in.At(SemPost).Action != ActNone {
			fired++
		}
	}
	frac := float64(fired) / n
	if frac < 0.27 || frac > 0.33 {
		t.Fatalf("rate 0.3 fired fraction %.4f out of tolerance", frac)
	}
}

func TestDelayBounds(t *testing.T) {
	const max = 10 * time.Millisecond
	in := New(5).Set(CVEnqueue, Rule{Rate: 1.0, Action: ActDelay, Delay: max})
	in.Arm()
	for i := 0; i < 1000; i++ {
		d := in.At(CVEnqueue)
		if d.Action != ActDelay {
			t.Fatalf("draw %d not a delay: %+v", i, d)
		}
		if d.Delay < max/2 || d.Delay > max {
			t.Fatalf("draw %d delay %v outside [%v, %v]", i, d.Delay, max/2, max)
		}
	}
}

// TestNilAndDisarmed: a nil injector and a disarmed injector are both
// fully inert and safe.
func TestNilAndDisarmed(t *testing.T) {
	var nilIn *Injector
	if nilIn.Armed() || nilIn.At(PreCommit) != (Decision{}) || nilIn.Seed() != 0 {
		t.Fatal("nil injector not inert")
	}
	nilIn.Arm()
	nilIn.Disarm()
	nilIn.Set(PreCommit, Rule{Rate: 1, Action: ActAbort})
	if nilIn.Sequence(PreCommit, 3) != nil || nilIn.Snapshot() != nil {
		t.Fatal("nil injector returned non-nil data")
	}
	_ = nilIn.Summary()

	in := New(1).SetAll(Rule{Rate: 1, Action: ActAbort})
	if d := in.At(PreCommit); d.Action != ActNone {
		t.Fatalf("disarmed injector fired: %+v", d)
	}
	if in.Drawn(PreCommit) != 0 {
		t.Fatal("disarmed draw consumed a sequence index")
	}
	in.Arm()
	if d := in.At(PreCommit); d.Action != ActAbort {
		t.Fatalf("armed injector did not fire: %+v", d)
	}
	in.Disarm()
	if d := in.At(PreCommit); d.Action != ActNone {
		t.Fatalf("re-disarmed injector fired: %+v", d)
	}
}

// TestDisabledPathNoAlloc pins the tracer-discipline contract: the
// disabled At path (nil or disarmed) does not allocate, and neither
// does the armed draw path.
func TestDisabledPathNoAlloc(t *testing.T) {
	var nilIn *Injector
	if n := testing.AllocsPerRun(1000, func() { nilIn.At(PreCommit) }); n != 0 {
		t.Fatalf("nil At allocates %v/op", n)
	}
	disarmed := New(3).SetAll(Rule{Rate: 1, Action: ActAbort})
	if n := testing.AllocsPerRun(1000, func() { disarmed.At(PreCommit) }); n != 0 {
		t.Fatalf("disarmed At allocates %v/op", n)
	}
	armed := New(3).SetAll(Rule{Rate: 0.5, Action: ActAbort, Delay: time.Millisecond})
	armed.Arm()
	if n := testing.AllocsPerRun(1000, func() { armed.At(PreCommit) }); n != 0 {
		t.Fatalf("armed At allocates %v/op", n)
	}
}

func TestSnapshotAndPointNames(t *testing.T) {
	in := New(11).Set(CVNotify, Rule{Rate: 1, Action: ActDelay, Delay: time.Microsecond})
	in.Arm()
	for i := 0; i < 5; i++ {
		in.At(CVNotify).Pause()
	}
	snap := in.Snapshot()
	if snap["cv.notify.drawn"] != 5 || snap["cv.notify.fired"] != 5 {
		t.Fatalf("snapshot wrong: %v", snap)
	}
	if in.FiredTotal() != 5 {
		t.Fatalf("FiredTotal=%d want 5", in.FiredTotal())
	}
	seen := map[string]bool{}
	for p := Point(0); p < NumPoints; p++ {
		s := p.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("point %d has bad or duplicate name %q", p, s)
		}
		seen[s] = true
	}
	for _, a := range []Action{ActNone, ActAbort, ActCapacity, ActDelay} {
		if a.String() == "" {
			t.Fatalf("action %d has empty name", a)
		}
	}
}
