package fault

import (
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"
)

// TestMain doubles as the re-exec helper: when the parent test below
// re-runs the test binary with FAULT_REEXEC_CHILD set, the process
// prints its injector's decision transcript and exits instead of
// running the test suite. This is a replay: line's situation — a fresh
// process, same seed — so determinism across re-exec (not merely across
// two injectors in one process) is the property under test.
func TestMain(m *testing.M) {
	if os.Getenv("FAULT_REEXEC_CHILD") != "" {
		fmt.Print(reexecTranscript())
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reexecTranscript arms a fixed-configuration injector and renders a
// deterministic transcript of live draws interleaved across points —
// the same (seed, point, n) stream every process must reproduce.
func reexecTranscript() string {
	const seed = 0xDEC0DE
	in := New(DeriveSeed(seed, 1)).
		SetAll(Rule{Rate: 0.31, Action: ActDelay, Delay: 800 * time.Microsecond}).
		Set(TxBegin, Rule{Rate: 0.5, Action: ActAbort}).
		Set(PreCommit, Rule{Rate: 0.25, Action: ActCapacity})
	in.Arm()
	out := ""
	// A fixed hook-arrival schedule: round-robin with a skewed repeat so
	// every point's counter advances at a different rate.
	for i := 0; i < 512; i++ {
		for p := Point(0); p < NumPoints; p++ {
			for k := 0; k <= i%int(p+1); k++ {
				d := in.At(p)
				out += fmt.Sprintf("%d %v %v %d\n", i, p, d.Action, d.Delay)
			}
		}
	}
	for p := Point(0); p < NumPoints; p++ {
		out += fmt.Sprintf("drawn %v %d fired %d\n", p, in.Drawn(p), in.Fired(p))
	}
	return out
}

// TestDeterminismAcrossReexec re-executes the test binary twice — two
// separate processes, as a failing run and its replay: line are — and
// requires both transcripts to match each other and the in-process
// reference.
func TestDeterminismAcrossReexec(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test skipped in -short")
	}
	want := reexecTranscript()
	for run := 0; run < 2; run++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestDeterminismAcrossReexec")
		cmd.Env = append(os.Environ(), "FAULT_REEXEC_CHILD=1")
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("re-exec %d: %v", run, err)
		}
		if string(out) != want {
			t.Fatalf("re-exec %d: transcript diverged from in-process reference (len %d vs %d)",
				run, len(out), len(want))
		}
	}
}

// TestDeriveSeed pins the seeding contract: pure in its inputs, distinct
// across streams, and never colliding with the base seed itself (so a
// derived schedule is not the base seed's own).
func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(42, 0) != DeriveSeed(42, 0) {
		t.Fatal("DeriveSeed is not pure")
	}
	seen := map[uint64]bool{42: true}
	for stream := uint64(0); stream < 100; stream++ {
		s := DeriveSeed(42, stream)
		if seen[s] {
			t.Fatalf("stream %d: derived seed %#x collides", stream, s)
		}
		seen[s] = true
	}
	if DeriveSeed(42, 7) == DeriveSeed(43, 7) {
		t.Fatal("different base seeds derive the same stream seed")
	}
}
