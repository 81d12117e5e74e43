package introspect

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/registry"
)

// FlightEvent is one trace record in a flight dump, with the event type
// resolved to its name so dumps read without the EventType table.
type FlightEvent struct {
	TS   int64  `json:"ts_ns"`
	Dur  int64  `json:"dur_ns,omitempty"`
	Type string `json:"type"`
	Lane uint64 `json:"lane"`
	A    int64  `json:"a,omitempty"`
	B    int64  `json:"b,omitempty"`
	Flow uint64 `json:"flow,omitempty"` // causal wake-flow id (DESIGN.md §15)
}

// Dump is the flight-recorder record: why it was taken, the last N trace
// events leading up to it (and the retention horizon before which events
// are missing), and a full registry snapshot at the moment of the
// trigger.
type Dump struct {
	Reason         string            `json:"reason"`
	Detail         map[string]any    `json:"detail,omitempty"`
	WrittenAt      time.Time         `json:"written_at"`
	TraceEvents    []FlightEvent     `json:"trace_events"`
	TraceHorizonNS int64             `json:"trace_horizon_ns,omitempty"`
	Registry       registry.Snapshot `json:"registry"`
}

// flightEvents bounds the trace tail kept in each dump.
const flightEvents = 4096

// Recorder captures flight dumps: on Trigger it drains the registry's
// tracer, keeps the newest flightEvents events, snapshots every
// registered metric and waiter, and writes the whole thing atomically
// (temp file + rename) into its directory. Triggers closer together
// than MinGap are dropped so a failing workload cannot flood the disk.
type Recorder struct {
	// MinGap is the minimum spacing between written dumps; closer
	// triggers return ("", nil). Default one second.
	MinGap time.Duration

	dir    string
	reg    *registry.Registry
	mu     sync.Mutex
	last   time.Time
	trials int
}

// NewRecorder returns a recorder dumping into dir ("" = os.TempDir).
// The tracer is read from reg at trigger time, so attaching one later
// still works.
func NewRecorder(dir string, reg *registry.Registry) *Recorder {
	if dir == "" {
		dir = os.TempDir()
	}
	return &Recorder{MinGap: time.Second, dir: dir, reg: reg}
}

// Trigger writes a flight dump and returns its path. A trigger inside
// MinGap of the previous written dump is dropped and returns ("", nil).
func (rec *Recorder) Trigger(reason string, detail map[string]any) (string, error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	now := time.Now()
	if !rec.last.IsZero() && now.Sub(rec.last) < rec.MinGap {
		return "", nil
	}
	rec.last = now
	rec.trials++

	evs, horizon := tailEvents(rec.reg.Tracer(), flightEvents)
	d := Dump{
		Reason:         reason,
		Detail:         detail,
		WrittenAt:      now,
		TraceEvents:    evs,
		TraceHorizonNS: horizon,
		Registry:       rec.reg.TakeSnapshot(),
	}
	name := fmt.Sprintf("cvflight-%s-%s.json", sanitizeReason(reason), now.Format("20060102-150405.000000000"))
	path := filepath.Join(rec.dir, name)

	tmp, err := os.CreateTemp(rec.dir, name+".tmp*")
	if err != nil {
		return "", fmt.Errorf("flight recorder: %w", err)
	}
	enc := json.NewEncoder(tmp)
	enc.SetIndent("", "  ")
	if err := enc.Encode(d); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("flight recorder: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("flight recorder: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("flight recorder: %w", err)
	}
	return path, nil
}

// Triggers returns how many dumps this recorder has written.
func (rec *Recorder) Triggers() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return rec.trials
}

// tailEvents drains tr and keeps the newest n events (Events is sorted
// by timestamp), returning them with the retention horizon: the newest
// timestamp dropped here or already overwritten in the ring. Nil-safe.
func tailEvents(tr *obs.Tracer, n int) ([]FlightEvent, int64) {
	evs := tr.Events()
	horizon := tr.Horizon()
	if len(evs) > n {
		horizon = max(horizon, evs[len(evs)-n-1].TS)
		evs = evs[len(evs)-n:]
	}
	out := make([]FlightEvent, len(evs))
	for i, ev := range evs {
		out[i] = FlightEvent{
			TS: ev.TS, Dur: ev.Dur, Type: ev.Type.String(),
			Lane: ev.Lane, A: ev.A, B: ev.B, Flow: ev.Flow,
		}
	}
	return out, horizon
}

// sanitizeReason keeps dump filenames shell-friendly.
func sanitizeReason(reason string) string {
	b := []byte(reason)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			b[i] = '_'
		}
	}
	if len(b) == 0 {
		return "dump"
	}
	return string(b)
}
