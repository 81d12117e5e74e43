package registry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// fixedRegistry builds a registry with deterministic values: the golden
// exposition in testdata/golden.prom is the expected rendering.
func fixedRegistry() *Registry {
	r := New()
	commits := int64(42)
	r.RegisterCounter("stm_commits_total", "outermost commits", Labels{"engine": "ml_wt"}, func() int64 { return commits })
	r.RegisterCounter("stm_commits_total", "outermost commits", Labels{"engine": "tl2_wb"}, func() int64 { return 7 })
	r.RegisterGauge("cv_queue_depth", "committed condvar wait-queue depth", Labels{"cv": "probe"}, func() int64 { return 3 })
	var h obs.Histogram
	h.Observe(1)
	h.Observe(100)
	h.Observe(100)
	snap := h.Snapshot()
	r.RegisterHistogram("cv_sem_park_ns", "park duration of descheduled waits", Labels{"cv": "probe"}, func() obs.HistogramSnapshot { return snap })
	return r
}

func TestWritePromGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := fixedRegistry().WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.prom"))
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got, want := buf.String(), string(golden); got != want {
		t.Errorf("exposition drifted from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Errorf("golden exposition does not validate: %v", err)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"empty":             "",
		"bare text":         "this is not an exposition\n",
		"bad name":          "1foo 3\n",
		"bad label":         `foo{1bar="x"} 3` + "\n",
		"negative counter":  "# TYPE foo counter\nfoo -1\n",
		"type after sample": "foo 1\n# TYPE foo counter\nfoo 2\n",
		"split family":      "# TYPE a counter\na 1\n# TYPE b counter\nb 1\na{x=\"y\"} 2\n",
		"missing inf": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n",
		"count mismatch": "# TYPE h histogram\n" +
			`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n",
		"non-cumulative": "# TYPE h histogram\n" +
			`h_bucket{le="1"} 5` + "\n" + `h_bucket{le="2"} 3` + "\n" +
			`h_bucket{le="+Inf"} 5` + "\nh_sum 9\nh_count 5\n",
	}
	for name, body := range cases {
		if err := ValidateExposition([]byte(body)); err == nil {
			t.Errorf("%s: validator accepted malformed exposition:\n%s", name, body)
		}
	}
}

func TestValidateExpositionAccepts(t *testing.T) {
	ok := "# HELP foo a counter\n# TYPE foo counter\n" +
		`foo{a="x",b="esc\"aped\\"} 12` + "\nfoo 3\n" +
		"# TYPE g gauge\ng -4\n" +
		"# TYPE h histogram\n" +
		`h_bucket{le="1"} 1` + "\n" + `h_bucket{le="+Inf"} 3` + "\nh_sum 201\nh_count 3\n"
	if err := ValidateExposition([]byte(ok)); err != nil {
		t.Errorf("validator rejected well-formed exposition: %v", err)
	}
}

func TestUpsertReplacesSource(t *testing.T) {
	r := New()
	r.RegisterCounter("x_total", "", Labels{"run": "a"}, func() int64 { return 1 })
	r.RegisterCounter("x_total", "", Labels{"run": "a"}, func() int64 { return 2 })
	vars := r.Vars()
	if len(vars) != 1 {
		t.Fatalf("upsert leaked a source: %d entries", len(vars))
	}
	if got := vars[`x_total{run="a"}`]; got != int64(2) {
		t.Fatalf("upsert kept the stale closure: got %v", got)
	}
	r.Unregister("x_total", Labels{"run": "a"})
	if n := len(r.Vars()); n != 0 {
		t.Fatalf("Unregister left %d sources", n)
	}
}

func TestVarsHistogramSummary(t *testing.T) {
	r := fixedRegistry()
	v := r.Vars()[`cv_sem_park_ns{cv="probe"}`]
	hv, ok := v.(HistVar)
	if !ok {
		t.Fatalf("histogram var has type %T", v)
	}
	if hv.Count != 3 || hv.Sum != 201 || hv.Max != 100 {
		t.Fatalf("histogram summary wrong: %+v", hv)
	}
	// The whole map must round-trip as JSON (the /debug/cv/vars body).
	if _, err := json.Marshal(r.Vars()); err != nil {
		t.Fatalf("vars not JSON-serializable: %v", err)
	}
}

func TestWaitersSourceNaming(t *testing.T) {
	r := New()
	r.RegisterWaiters("b-cv", func() []Waiter {
		return []Waiter{{Node: 2, EnqueueAgeNS: 10, ParkAgeNS: -1}}
	})
	r.RegisterWaiters("a-cv", func() []Waiter {
		return []Waiter{{Node: 1, EnqueueAgeNS: 5, ParkAgeNS: 4}}
	})
	ws := r.Waiters()
	if len(ws) != 2 {
		t.Fatalf("got %d waiters, want 2", len(ws))
	}
	if ws[0].Source != "a-cv" || ws[1].Source != "b-cv" {
		t.Fatalf("waiters not sorted by source with Source filled: %+v", ws)
	}
}

func TestTakeSnapshot(t *testing.T) {
	r := fixedRegistry()
	r.RegisterWaiters("probe", func() []Waiter { return []Waiter{{Node: 9, ParkAgeNS: 100}} })
	snap := r.TakeSnapshot()
	if len(snap.Scalars) != 3 {
		t.Fatalf("snapshot scalars: %v", snap.Scalars)
	}
	h, ok := snap.Histograms[`cv_sem_park_ns{cv="probe"}`]
	if !ok || h.Count != 3 || len(h.Buckets) == 0 {
		t.Fatalf("snapshot histogram missing full buckets: %+v", h)
	}
	if len(snap.Waiters) != 1 || snap.Waiters[0].Source != "probe" {
		t.Fatalf("snapshot waiters: %+v", snap.Waiters)
	}
	if snap.TakenAt.IsZero() {
		t.Fatal("snapshot missing timestamp")
	}
}

func TestInvalidNamesPanic(t *testing.T) {
	r := New()
	for _, fn := range []func(){
		func() { r.RegisterCounter("bad name", "", nil, func() int64 { return 0 }) },
		func() { r.RegisterGauge("1leading", "", nil, func() int64 { return 0 }) },
		func() { r.RegisterCounter("ok_total", "", Labels{"bad-label": "v"}, func() int64 { return 0 }) },
		func() { r.RegisterCounter("ok_total", "", nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid registration did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := renderLabels(Labels{"k": "a\"b\\c\nd"}); !strings.Contains(got, `a\"b\\c\nd`) {
		t.Fatalf("label value not escaped: %s", got)
	}
}
