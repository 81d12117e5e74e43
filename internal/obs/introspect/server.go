// Package introspect is the opt-in live-observability surface of the
// stack (DESIGN.md §10): an HTTP server over a registry.Registry
// exposing /debug/cv/metrics (Prometheus text exposition),
// /debug/cv/vars (flat expvar-style JSON), /debug/cv/waiters (live
// wait-chain dump), /debug/cv/conflicts (abort attribution) and
// /debug/cv/trace (Chrome trace_event drain of the attached tracer),
// plus the flight recorder that snapshots the same registry when a
// soak fails.
//
// Nothing in this package touches a hot path. A process that never
// calls Start pays exactly the instruments it already had; while a
// server runs, the only added steady-state cost is the park-label gate
// (one atomic load per condvar park, see obs.HoldParkLabels).
package introspect

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/registry"
)

// Options configures Start.
type Options struct {
	// Addr is the listen address, e.g. "127.0.0.1:6070" or ":0" for an
	// ephemeral port (read it back from Server.Addr).
	Addr string

	// Registry is the metric registry to serve; nil selects
	// registry.Default.
	Registry *registry.Registry
}

// Server is a running introspection endpoint.
type Server struct {
	reg   *registry.Registry
	ln    net.Listener
	srv   *http.Server
	close sync.Once // releases the park-label hold exactly once
}

// Start listens on opts.Addr and serves the /debug/cv/* endpoints. It
// holds park-time goroutine labeling on for the server's lifetime;
// Close releases the hold, so labels stay on while any server runs.
func Start(opts Options) (*Server, error) {
	reg := opts.Registry
	if reg == nil {
		reg = registry.Default
	}
	ln, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("introspect: listen %s: %w", opts.Addr, err)
	}
	s := &Server{reg: reg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/cv/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/cv/vars", s.handleVars)
	mux.HandleFunc("/debug/cv/waiters", s.handleWaiters)
	mux.HandleFunc("/debug/cv/conflicts", s.handleConflicts)
	mux.HandleFunc("/debug/cv/trace", s.handleTrace)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(ln) //nolint:errcheck — Serve always returns on Close

	obs.HoldParkLabels()
	return s, nil
}

// Addr returns the bound listen address (resolves ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Registry returns the served registry.
func (s *Server) Registry() *registry.Registry { return s.reg }

// Close stops the listener and releases the server's park-label hold.
// Closing twice releases it once.
func (s *Server) Close() error {
	s.close.Do(obs.ReleaseParkLabels)
	return s.srv.Close()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.WriteProm(w) //nolint:errcheck — client went away
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	s.reg.WriteVars(w) //nolint:errcheck — client went away
}

// SourceSummary is the per-condvar roll-up in a /debug/cv/waiters body.
type SourceSummary struct {
	Source          string `json:"source"`
	Depth           int    `json:"depth"`
	OldestParkNS    int64  `json:"oldest_park_ns"`
	OldestEnqueueNS int64  `json:"oldest_enqueue_ns"`
}

// WaitersDump is the /debug/cv/waiters body: one summary per condvar
// plus the flat waiter list.
type WaitersDump struct {
	GeneratedAt time.Time         `json:"generated_at"`
	Sources     []SourceSummary   `json:"sources"`
	Waiters     []registry.Waiter `json:"waiters"`
}

// BuildWaitersDump assembles the dump from a registry (shared between
// the HTTP handler and tests).
func BuildWaitersDump(reg *registry.Registry) WaitersDump {
	ws := reg.Waiters()
	dump := WaitersDump{GeneratedAt: time.Now(), Waiters: ws}
	idx := make(map[string]int)
	for _, w := range ws {
		i, ok := idx[w.Source]
		if !ok {
			i = len(dump.Sources)
			idx[w.Source] = i
			dump.Sources = append(dump.Sources, SourceSummary{Source: w.Source})
		}
		sum := &dump.Sources[i]
		sum.Depth++
		if w.ParkAgeNS > sum.OldestParkNS {
			sum.OldestParkNS = w.ParkAgeNS
		}
		if w.EnqueueAgeNS > sum.OldestEnqueueNS {
			sum.OldestEnqueueNS = w.EnqueueAgeNS
		}
	}
	return dump
}

func (s *Server) handleWaiters(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(BuildWaitersDump(s.reg)) //nolint:errcheck — client went away
}

// defaultConflictTopK bounds the table served by /debug/cv/conflicts
// when no ?topk= parameter is given.
const defaultConflictTopK = 20

// ConflictsDump is the /debug/cv/conflicts body: per engine, the top-K
// abort-attribution rows (DESIGN.md §13), ranked by attributed aborts.
// Empty tables mean nothing aborted yet.
type ConflictsDump struct {
	GeneratedAt time.Time                         `json:"generated_at"`
	TopK        int                               `json:"top_k"`
	Engines     map[string][]registry.ConflictVar `json:"engines"`
}

// BuildConflictsDump assembles the dump from a registry (shared between
// the HTTP handler and tests).
func BuildConflictsDump(reg *registry.Registry, topK int) ConflictsDump {
	if topK <= 0 {
		topK = defaultConflictTopK
	}
	return ConflictsDump{
		GeneratedAt: time.Now(),
		TopK:        topK,
		Engines:     reg.Conflicts(topK),
	}
}

func (s *Server) handleConflicts(w http.ResponseWriter, r *http.Request) {
	topK := 0
	if q := r.URL.Query().Get("topk"); q != "" {
		if n, err := strconv.Atoi(q); err == nil {
			topK = n
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(BuildConflictsDump(s.reg, topK)) //nolint:errcheck — client went away
}

// handleTrace drains the registry's tracer as Chrome trace_event JSON
// (load it at chrome://tracing or https://ui.perfetto.dev). Pass
// ?reset=1 to clear the ring after the write, turning repeated scrapes
// into consecutive windows.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.reg.Tracer()
	if tr == nil {
		http.Error(w, "no tracer attached to the registry (run with tracing enabled)", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	tr.WriteChromeTrace(w) //nolint:errcheck — client went away
	if r.URL.Query().Get("reset") == "1" {
		tr.Reset()
	}
}
