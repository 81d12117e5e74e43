package introspect

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/registry"
	"repro/internal/stm"
)

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body), resp
}

func TestServerEndpoints(t *testing.T) {
	reg := registry.New()
	tr := obs.NewTracer(1 << 10)
	tr.Enable()
	reg.SetTracer(tr)

	e := stm.NewEngine(stm.Config{Name: "ep-test"})
	e.SetTracer(tr)
	e.RegisterMetrics(reg)
	v := stm.NewVar(e, 0)
	for i := 0; i < 10; i++ {
		e.MustAtomic(func(tx *stm.Tx) { stm.Write(tx, v, stm.Read(tx, v)+1) })
	}

	// A canned waiter source stands in for a live condvar (core's own
	// tests cover the real WaitChain); here we validate the HTTP shape.
	reg.RegisterWaiters("fake-cv", func() []registry.Waiter {
		return []registry.Waiter{
			{Node: 7, EnqueueAgeNS: 2000, ParkAgeNS: 1500},
			{Node: 8, EnqueueAgeNS: 900, ParkAgeNS: -1},
		}
	})

	s, err := Start(Options{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !obs.ParkLabelsEnabled() {
		t.Error("Start did not enable park labels")
	}

	body, resp := get(t, s.URL()+"/debug/cv/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	if err := registry.ValidateExposition([]byte(body)); err != nil {
		t.Errorf("metrics exposition invalid: %v\n%s", err, body)
	}
	if !strings.Contains(body, `stm_commits_total{algorithm=`) {
		t.Errorf("metrics missing stm_commits_total:\n%s", body)
	}

	body, _ = get(t, s.URL()+"/debug/cv/vars")
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("vars not JSON: %v", err)
	}
	if len(vars) == 0 {
		t.Error("vars empty")
	}

	body, _ = get(t, s.URL()+"/debug/cv/waiters")
	var wd WaitersDump
	if err := json.Unmarshal([]byte(body), &wd); err != nil {
		t.Fatalf("waiters not JSON: %v", err)
	}
	if len(wd.Waiters) != 2 || len(wd.Sources) != 1 {
		t.Fatalf("waiters dump = %+v", wd)
	}
	src := wd.Sources[0]
	if src.Source != "fake-cv" || src.Depth != 2 || src.OldestParkNS != 1500 || src.OldestEnqueueNS != 2000 {
		t.Errorf("source summary = %+v", src)
	}

	body, _ = get(t, s.URL()+"/debug/cv/trace?reset=1")
	if !json.Valid([]byte(body)) {
		t.Errorf("trace not valid JSON:\n%.200s", body)
	}
	if len(tr.Events()) != 0 {
		t.Error("?reset=1 did not drain the tracer")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if obs.ParkLabelsEnabled() {
		t.Error("Close did not disable park labels")
	}
}

// Labels stay on while any server runs: closing one of two must not
// switch them off for the other.
func TestParkLabelsHeldPerServer(t *testing.T) {
	a, err := Start(Options{Addr: "127.0.0.1:0", Registry: registry.New()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Start(Options{Addr: "127.0.0.1:0", Registry: registry.New()})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.Close()
	a.Close() // a second Close must not release b's hold
	if !obs.ParkLabelsEnabled() {
		t.Error("closing one server turned park labels off while another still runs")
	}
	b.Close()
	if obs.ParkLabelsEnabled() {
		t.Error("park labels still on after every server closed")
	}
}

// TestConflictsEndpoint validates /debug/cv/conflicts: JSON shape and
// topk query handling.
func TestConflictsEndpoint(t *testing.T) {
	reg := registry.New()
	reg.RegisterConflicts("chaos/tm-cv", func(topK int) []registry.ConflictVar {
		rows := []registry.ConflictVar{
			{Var: "chaos.hot", Total: 40, ByReason: map[string]int64{"conflict": 40}},
			{Var: "taskq.items", Total: 3, ByReason: map[string]int64{"conflict": 3}},
		}
		if topK < len(rows) {
			rows = rows[:topK]
		}
		return rows
	})
	s, err := Start(Options{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	body, resp := get(t, s.URL()+"/debug/cv/conflicts")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("conflicts Content-Type = %q", ct)
	}
	var cd ConflictsDump
	if err := json.Unmarshal([]byte(body), &cd); err != nil {
		t.Fatalf("conflicts not JSON: %v\n%s", err, body)
	}
	if cd.GeneratedAt.IsZero() {
		t.Errorf("dump header = %+v, want generated_at set", cd)
	}
	rows := cd.Engines["chaos/tm-cv"]
	if len(rows) != 2 || rows[0].Var != "chaos.hot" || rows[0].Total != 40 {
		t.Fatalf("engines table = %+v", cd.Engines)
	}

	body, _ = get(t, s.URL()+"/debug/cv/conflicts?topk=1")
	if err := json.Unmarshal([]byte(body), &cd); err != nil {
		t.Fatal(err)
	}
	if cd.TopK != 1 || len(cd.Engines["chaos/tm-cv"]) != 1 {
		t.Fatalf("topk=1 dump = %+v", cd)
	}
}

func TestTraceEndpointWithoutTracer(t *testing.T) {
	s, err := Start(Options{Addr: "127.0.0.1:0", Registry: registry.New()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, resp := get(t, s.URL()+"/debug/cv/trace")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace without tracer: status %d, want 404", resp.StatusCode)
	}
}

// TestFlightDumpOnTrigger is the acceptance test for the flight
// recorder: a Trigger writes a dump whose reason and detail round-trip
// and which carries both the tracer's events and a full registry
// snapshot, stm counters included.
func TestFlightDumpOnTrigger(t *testing.T) {
	reg := registry.New()
	tr := obs.NewTracer(1 << 12)
	tr.Enable()
	reg.SetTracer(tr)

	e := stm.NewEngine(stm.Config{Name: "introspect-test"})
	e.SetTracer(tr)
	e.RegisterMetrics(reg)
	v := stm.NewVar(e, 0)
	for i := 0; i < 10; i++ {
		e.MustAtomic(func(tx *stm.Tx) { stm.Write(tx, v, stm.Read(tx, v)+1) })
	}

	rec := NewRecorder(t.TempDir(), reg)
	path, err := rec.Trigger("chaos-failure", map[string]any{"seed": 7})
	if err != nil || path == "" {
		t.Fatalf("Trigger = %q, %v", path, err)
	}
	if !strings.HasPrefix(filepath.Base(path), "cvflight-chaos-failure-") {
		t.Errorf("dump path = %q", path)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatalf("dump not JSON: %v", err)
	}
	if d.Reason != "chaos-failure" || d.Detail["seed"] != float64(7) {
		t.Errorf("dump reason/detail = %q %+v", d.Reason, d.Detail)
	}
	if len(d.TraceEvents) == 0 {
		t.Error("dump has no trace events")
	}
	found := false
	for k := range d.Registry.Scalars {
		if strings.HasPrefix(k, "stm_commits_total") {
			found = true
		}
	}
	if !found {
		t.Errorf("dump registry snapshot missing stm counters: %v", d.Registry.Scalars)
	}
}

func TestRecorderRateLimit(t *testing.T) {
	reg := registry.New()
	rec := NewRecorder(t.TempDir(), reg)
	p1, err := rec.Trigger("x", nil)
	if err != nil || p1 == "" {
		t.Fatalf("first trigger: %q, %v", p1, err)
	}
	p2, err := rec.Trigger("x", nil)
	if err != nil || p2 != "" {
		t.Fatalf("second trigger inside MinGap: %q, %v — want dropped", p2, err)
	}
	if rec.Triggers() != 1 {
		t.Errorf("trigger count = %d", rec.Triggers())
	}
}
