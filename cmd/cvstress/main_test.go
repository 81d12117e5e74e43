package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// buildOnce compiles the cvstress binary once per test run; the
// subprocess tests below exercise the real exit-code and signal paths,
// which in-process calls cannot.
var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func testBinary(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("subprocess test skipped in -short")
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "cvstress-bin")
		if err != nil {
			buildErr = err
			return
		}
		binPath = filepath.Join(dir, "cvstress")
		out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput()
		if err != nil {
			buildErr = err
			binPath = string(out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building cvstress: %v\n%s", buildErr, binPath)
	}
	return binPath
}

func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !asExitError(err, &ee) {
		t.Fatalf("run failed without an exit code: %v", err)
	}
	return ee.ExitCode()
}

func asExitError(err error, target **exec.ExitError) bool {
	ee, ok := err.(*exec.ExitError)
	if ok {
		*target = ee
	}
	return ok
}

func TestBlackboxCleanRun(t *testing.T) {
	bin := testBinary(t)
	out, err := exec.Command(bin, "-mode", "blackbox", "-seed", "1",
		"-duration", "400ms", "-goroutines", "4", "-faultrate", "0.05").CombinedOutput()
	if code := exitCode(t, err); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if !strings.Contains(string(out), "divergences=0") ||
		!strings.Contains(string(out), "parked_waiters=0") {
		t.Fatalf("missing clean summary:\n%s", out)
	}
}

func TestBlackboxCatchesInjectedLostWakeup(t *testing.T) {
	bin := testBinary(t)
	out, err := exec.Command(bin, "-mode", "blackbox", "-seed", "2",
		"-duration", "200ms", "-goroutines", "4", "-faultrate", "0",
		"-buglostwake").CombinedOutput()
	if code := exitCode(t, err); code != 2 {
		t.Fatalf("exit %d, want 2 (invariant violation), output:\n%s", code, out)
	}
	if !strings.Contains(string(out), "cond.lost-wakeup") {
		t.Fatalf("lost wakeup not named:\n%s", out)
	}
	if !strings.Contains(string(out), "replay: go run ./cmd/cvstress") {
		t.Fatalf("no replay line on failure:\n%s", out)
	}
}

// TestBlackboxSigtermDrains is the satellite check that a SIGTERM
// mid-soak ends in a graceful CloseCtx drain with zero parked waiters.
func TestBlackboxSigtermDrains(t *testing.T) {
	bin := testBinary(t)
	cmd := exec.Command(bin, "-mode", "blackbox", "-seed", "4",
		"-duration", "30s", "-goroutines", "4", "-faultrate", "0.05")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(700 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := exitCode(t, cmd.Wait()); code != 0 {
		t.Fatalf("exit %d after SIGTERM, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "parked_waiters=0") {
		t.Fatalf("drain left parked waiters (or no summary):\n%s", out.String())
	}
}

func TestSetupErrorsExitOne(t *testing.T) {
	bin := testBinary(t)
	if out, err := exec.Command(bin, "-mode", "nosuchmode").CombinedOutput(); exitCode(t, err) != 1 {
		t.Fatalf("unknown mode: exit %d, output:\n%s", exitCode(t, err), out)
	}
}
