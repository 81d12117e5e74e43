// Command cvtop is a terminal viewer for the live-introspection
// endpoints (DESIGN.md §10): point it at a process started with
// -introspect and it polls /debug/cv/vars, /debug/cv/waiters and
// /debug/cv/conflicts, rendering per-engine commit/abort rates, the
// busiest condition variables with their deepest waiters, the wake pane
// (who consumed each wake: the waiter, a timeout, or a cancellation),
// and the hottest named transactional Vars by attributed aborts.
//
// Usage:
//
//	cvtop -addr 127.0.0.1:6070 [flags]
//
//	-addr host:port   introspection endpoint to poll (required)
//	-interval d       poll/refresh period (default 1s)
//	-n N              show the top N condvars (default 10)
//	-once             render a single frame and exit (no screen clear)
//	-check            probe all /debug/cv/* endpoints, validate their
//	                  formats (Prometheus exposition, JSON shapes) and
//	                  exit; used by verify.sh as the smoke gate
//
// Rates are deltas between consecutive polls, so the first frame shows
// totals only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs/registry"
)

func main() {
	addr := flag.String("addr", "", "introspection endpoint (host:port) to poll")
	interval := flag.Duration("interval", time.Second, "poll/refresh period")
	topN := flag.Int("n", 10, "show the top N condvars")
	once := flag.Bool("once", false, "render a single frame and exit")
	check := flag.Bool("check", false, "validate all endpoints and exit")
	flag.Parse()

	if *addr == "" {
		fmt.Fprintln(os.Stderr, "cvtop: -addr is required")
		os.Exit(2)
	}
	base := "http://" + *addr

	if *check {
		if err := runCheck(base); err != nil {
			fmt.Fprintln(os.Stderr, "cvtop: check failed:", err)
			os.Exit(1)
		}
		fmt.Println("cvtop: all endpoints OK")
		return
	}

	var prev *sample
	for {
		cur, err := poll(base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cvtop:", err)
			os.Exit(1)
		}
		var out strings.Builder
		render(&out, cur, prev, *topN)
		if *once {
			io.Copy(os.Stdout, strings.NewReader(out.String())) //nolint:errcheck
			return
		}
		fmt.Print("\x1b[H\x1b[2J" + out.String())
		prev = cur
		time.Sleep(*interval)
	}
}

// runCheck probes every endpoint and validates its format.
func runCheck(base string) error {
	body, err := fetch(base + "/debug/cv/metrics")
	if err != nil {
		return err
	}
	if err := registry.ValidateExposition(body); err != nil {
		return fmt.Errorf("/debug/cv/metrics: %w", err)
	}
	body, err = fetch(base + "/debug/cv/vars")
	if err != nil {
		return err
	}
	var vars map[string]any
	if err := json.Unmarshal(body, &vars); err != nil {
		return fmt.Errorf("/debug/cv/vars: %w", err)
	}
	if len(vars) == 0 {
		return fmt.Errorf("/debug/cv/vars: no variables exported")
	}
	body, err = fetch(base + "/debug/cv/waiters")
	if err != nil {
		return err
	}
	var wd struct {
		GeneratedAt time.Time         `json:"generated_at"`
		Waiters     []registry.Waiter `json:"waiters"`
	}
	if err := json.Unmarshal(body, &wd); err != nil {
		return fmt.Errorf("/debug/cv/waiters: %w", err)
	}
	if wd.GeneratedAt.IsZero() {
		return fmt.Errorf("/debug/cv/waiters: missing generated_at")
	}
	body, err = fetch(base + "/debug/cv/conflicts")
	if err != nil {
		return err
	}
	var cd struct {
		GeneratedAt time.Time                         `json:"generated_at"`
		TopK        int                               `json:"top_k"`
		Engines     map[string][]registry.ConflictVar `json:"engines"`
	}
	if err := json.Unmarshal(body, &cd); err != nil {
		return fmt.Errorf("/debug/cv/conflicts: %w", err)
	}
	if cd.GeneratedAt.IsZero() || cd.TopK <= 0 {
		return fmt.Errorf("/debug/cv/conflicts: missing generated_at/top_k")
	}
	// /debug/cv/trace legitimately 404s when no tracer is attached; any
	// 200 must be valid JSON.
	resp, err := http.Get(base + "/debug/cv/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if !json.Valid(raw) {
			return fmt.Errorf("/debug/cv/trace: invalid JSON")
		}
	}
	return nil
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// sample is one poll of the endpoint.
type sample struct {
	at        time.Time
	scalars   map[string]float64 // full "name{labels}" key -> value
	hists     map[string]histVar
	waiters   []registry.Waiter
	sources   []sourceSummary
	conflicts map[string][]registry.ConflictVar // engine -> top-K hot Vars
}

type histVar struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P99   int64 `json:"p99"`
}

type sourceSummary struct {
	Source          string `json:"source"`
	Depth           int    `json:"depth"`
	OldestParkNS    int64  `json:"oldest_park_ns"`
	OldestEnqueueNS int64  `json:"oldest_enqueue_ns"`
}

func poll(base string) (*sample, error) {
	s := &sample{
		at:      time.Now(),
		scalars: map[string]float64{},
		hists:   map[string]histVar{},
	}
	body, err := fetch(base + "/debug/cv/vars")
	if err != nil {
		return nil, err
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("vars: %w", err)
	}
	for k, v := range raw {
		var f float64
		if err := json.Unmarshal(v, &f); err == nil {
			s.scalars[k] = f
			continue
		}
		var h histVar
		if err := json.Unmarshal(v, &h); err == nil {
			s.hists[k] = h
		}
	}
	body, err = fetch(base + "/debug/cv/waiters")
	if err != nil {
		return nil, err
	}
	var wd struct {
		Sources []sourceSummary   `json:"sources"`
		Waiters []registry.Waiter `json:"waiters"`
	}
	if err := json.Unmarshal(body, &wd); err != nil {
		return nil, fmt.Errorf("waiters: %w", err)
	}
	s.sources = wd.Sources
	s.waiters = wd.Waiters
	body, err = fetch(base + "/debug/cv/conflicts")
	if err != nil {
		return nil, err
	}
	var cd struct {
		Engines map[string][]registry.ConflictVar `json:"engines"`
	}
	if err := json.Unmarshal(body, &cd); err != nil {
		return nil, fmt.Errorf("conflicts: %w", err)
	}
	s.conflicts = cd.Engines
	return s, nil
}

// splitKey separates "name{k="v",...}" into name and the label block.
func splitKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// labelValue extracts one label's value from a rendered label block.
func labelValue(labels, key string) string {
	marker := key + `="`
	i := strings.Index(labels, marker)
	if i < 0 {
		return ""
	}
	rest := labels[i+len(marker):]
	if j := strings.IndexByte(rest, '"'); j >= 0 {
		return rest[:j]
	}
	return ""
}

// engineRow aggregates one engine's scalars for the header table.
type engineRow struct {
	name                     string
	labels                   string
	commits, aborts, serials float64
}

func render(w *strings.Builder, cur, prev *sample, topN int) {
	fmt.Fprintf(w, "cvtop  %s", cur.at.Format("15:04:05"))
	if prev != nil {
		fmt.Fprintf(w, "  (rates over %v)", cur.at.Sub(prev.at).Round(time.Millisecond))
	}
	fmt.Fprintln(w)

	// Engines: group stm_* scalars by label block.
	engines := map[string]*engineRow{}
	for k, v := range cur.scalars {
		name, labels := splitKey(k)
		if !strings.HasPrefix(name, "stm_") {
			continue
		}
		eng := labelValue(labels, "engine")
		row := engines[labels]
		if row == nil {
			row = &engineRow{name: eng, labels: labels}
			engines[labels] = row
		}
		switch name {
		case "stm_commits_total":
			row.commits = v
		case "stm_aborts_total":
			row.aborts = v
		case "stm_serial_commits_total":
			row.serials = v
		}
	}
	var rows []*engineRow
	for _, r := range engines {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	if len(rows) > 0 {
		fmt.Fprintf(w, "\n%-24s %12s %12s %10s\n", "ENGINE", "COMMITS", "ABORTS", "SERIAL")
		for _, r := range rows {
			commits, aborts := r.commits, r.aborts
			suffix := ""
			if prev != nil {
				dt := cur.at.Sub(prev.at).Seconds()
				if dt > 0 {
					commits = (r.commits - prev.scalars["stm_commits_total"+r.labels]) / dt
					aborts = (r.aborts - prev.scalars["stm_aborts_total"+r.labels]) / dt
					suffix = "/s"
				}
			}
			fmt.Fprintf(w, "%-24s %11.0f%s %11.0f%s %10.0f\n",
				r.name, commits, suffix, aborts, suffix, r.serials)
		}
	}

	// Condvars: the waiters roll-up, deepest / most starved first.
	srcs := append([]sourceSummary(nil), cur.sources...)
	sort.Slice(srcs, func(i, j int) bool {
		if srcs[i].Depth != srcs[j].Depth {
			return srcs[i].Depth > srcs[j].Depth
		}
		return srcs[i].OldestParkNS > srcs[j].OldestParkNS
	})
	if len(srcs) > topN {
		srcs = srcs[:topN]
	}
	fmt.Fprintf(w, "\n%-32s %7s %16s %16s\n", "CONDVAR", "DEPTH", "OLDEST PARK", "OLDEST ENQUEUE")
	if len(srcs) == 0 {
		fmt.Fprintln(w, "(no waiters)")
	}
	for _, s := range srcs {
		park := "-"
		if s.OldestParkNS >= 0 {
			park = time.Duration(s.OldestParkNS).Round(time.Microsecond).String()
		}
		fmt.Fprintf(w, "%-32s %7d %16s %16s\n", s.Source, s.Depth, park,
			time.Duration(s.OldestEnqueueNS).Round(time.Microsecond))
	}

	// Park-latency summary per labeled cv_sem_park_ns histogram.
	var hkeys []string
	for k := range cur.hists {
		if name, _ := splitKey(k); name == "cv_sem_park_ns" {
			hkeys = append(hkeys, k)
		}
	}
	sort.Strings(hkeys)
	if len(hkeys) > 0 {
		fmt.Fprintf(w, "\n%-24s %10s %12s %12s %12s\n", "PARK LATENCY", "COUNT", "P50", "P99", "MAX")
		for _, k := range hkeys {
			h := cur.hists[k]
			_, labels := splitKey(k)
			fmt.Fprintf(w, "%-24s %10d %12s %12s %12s\n",
				labelValue(labels, "engine"), h.Count,
				time.Duration(h.P50), time.Duration(h.P99), time.Duration(h.Max))
		}
	}

	renderWakes(w, cur, topN)
	renderConflicts(w, cur, topN)
}

// renderWakes prints the wake pane: per-engine consumer attribution,
// read from the engine-labelled cv_wake_consumed_total counter sets.
func renderWakes(w *strings.Builder, cur *sample, topN int) {
	type wakeRow struct {
		src                string
		waiter, timed, cxl float64
	}
	rows := map[string]*wakeRow{}
	for k, v := range cur.scalars {
		name, labels := splitKey(k)
		if name != "cv_wake_consumed_total" {
			continue
		}
		src := labelValue(labels, "engine")
		r := rows[src]
		if r == nil {
			r = &wakeRow{src: src}
			rows[src] = r
		}
		switch labelValue(labels, "by") {
		case "waiter":
			r.waiter = v
		case "timeout":
			r.timed = v
		case "cancel":
			r.cxl = v
		}
	}
	if len(rows) == 0 {
		return
	}
	out := make([]*wakeRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, r)
	}
	total := func(r *wakeRow) float64 { return r.waiter + r.timed + r.cxl }
	sort.Slice(out, func(i, j int) bool {
		if total(out[i]) != total(out[j]) {
			return total(out[i]) > total(out[j])
		}
		return out[i].src < out[j].src
	})
	if len(out) > topN {
		out = out[:topN]
	}
	fmt.Fprintf(w, "\n%-24s %10s %10s %9s %8s\n", "WAKES CONSUMED", "TOTAL", "WAITER", "TIMEOUT", "CANCEL")
	for _, r := range out {
		fmt.Fprintf(w, "%-24s %10.0f %10.0f %9.0f %8.0f\n", r.src, total(r), r.waiter, r.timed, r.cxl)
	}
}

// conflictRow flattens the per-engine attribution tables for ranking.
type conflictRow struct {
	engine string
	cv     registry.ConflictVar
}

// renderConflicts prints the hottest Vars by attributed aborts across
// all engines — the live view of /debug/cv/conflicts.
func renderConflicts(w *strings.Builder, cur *sample, topN int) {
	var rows []conflictRow
	for eng, cvs := range cur.conflicts {
		for _, cv := range cvs {
			rows = append(rows, conflictRow{engine: eng, cv: cv})
		}
	}
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool {
		// The "(unattributed)" residue bucket sorts last no matter how
		// large: it is a catch-all, not an actionable Var.
		iu, ju := rows[i].cv.Var == "(unattributed)", rows[j].cv.Var == "(unattributed)"
		if iu != ju {
			return ju
		}
		if rows[i].cv.Total != rows[j].cv.Total {
			return rows[i].cv.Total > rows[j].cv.Total
		}
		return rows[i].cv.Var < rows[j].cv.Var
	})
	if len(rows) > topN {
		rows = rows[:topN]
	}
	fmt.Fprintf(w, "\n%-28s %-14s %10s  %s\n",
		"TOP CONFLICTS (VAR)", "ENGINE", "ABORTS", "REASONS")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %-14s %10d  %s\n",
			r.cv.Var, r.engine, r.cv.Total, reasonMix(r.cv.ByReason))
	}
}

// reasonMix renders a compact "reason:count" list, largest first.
func reasonMix(byReason map[string]int64) string {
	type rc struct {
		r string
		n int64
	}
	var mix []rc
	for r, n := range byReason {
		mix = append(mix, rc{r, n})
	}
	sort.Slice(mix, func(i, j int) bool {
		if mix[i].n != mix[j].n {
			return mix[i].n > mix[j].n
		}
		return mix[i].r < mix[j].r
	})
	parts := make([]string, len(mix))
	for i, m := range mix {
		parts[i] = fmt.Sprintf("%s:%d", m.r, m.n)
	}
	return strings.Join(parts, " ")
}
