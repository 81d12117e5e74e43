package stm

import (
	"testing"
	"time"
)

// The retry-backoff contract, asserted on backoffDelay and jitter
// directly so no test depends on how long a sleep took.

// TestBackoffEarlyAttemptsYield: the first two retries yield instead of
// sleeping.
func TestBackoffEarlyAttemptsYield(t *testing.T) {
	for attempt := 0; attempt < 2; attempt++ {
		if d := backoffDelay(attempt); d != 0 {
			t.Fatalf("attempt %d: bound %v, want 0 (yield)", attempt, d)
		}
	}
	if d := backoffDelay(2); d == 0 {
		t.Fatal("attempt 2 yields; want a sleep")
	}
}

// TestBackoffBounded: the pre-jitter bound never shrinks as attempts
// grow and never exceeds backoffMax, however deep the retry.
func TestBackoffBounded(t *testing.T) {
	prev := time.Duration(0)
	for _, attempt := range []int{0, 1, 2, 3, 5, 8, 12, 13, 40, 1 << 20} {
		d := backoffDelay(attempt)
		if d < prev {
			t.Fatalf("attempt %d: bound %v shrank from %v", attempt, d, prev)
		}
		if d > backoffMax {
			t.Fatalf("attempt %d: bound %v exceeds backoffMax %v", attempt, d, backoffMax)
		}
		prev = d
	}
	if prev != backoffMax {
		t.Fatalf("deep-retry bound = %v, want cap %v", prev, backoffMax)
	}
}

// TestBackoffEnvelope: the jittered sleep lands in [d/2, d] for every
// draw at every bound backoff sleeps.
func TestBackoffEnvelope(t *testing.T) {
	for attempt := 2; attempt < 20; attempt++ {
		d := backoffDelay(attempt)
		for i := 0; i < 200; i++ {
			if s := jitter(d); s < d/2 || s > d {
				t.Fatalf("attempt %d: jittered sleep %v outside [%v, %v]", attempt, s, d/2, d)
			}
		}
	}
}

// TestBackoffDelayEnvelopeTable pins backoffDelay's exact values: yield,
// exponential growth from backoffBase, and the clamp at backoffMax.
func TestBackoffDelayEnvelopeTable(t *testing.T) {
	cases := []struct {
		attempt int
		want    time.Duration
	}{
		{0, 0},
		{1, 0},
		{2, 2 * time.Microsecond},
		{5, 16 * time.Microsecond},
		{7, 64 * time.Microsecond},
		{8, backoffMax}, // 500ns<<8 = 128µs clamps
		{12, backoffMax},
		{100, backoffMax},
	}
	for _, tc := range cases {
		if got := backoffDelay(tc.attempt); got != tc.want {
			t.Errorf("backoffDelay(%d) = %v, want %v", tc.attempt, got, tc.want)
		}
	}
}
