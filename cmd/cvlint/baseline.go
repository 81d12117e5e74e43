// Baselines let a codebase adopt a new analyzer without first fixing
// every historical finding: -write-baseline records today's findings,
// -baseline suppresses exactly those, and anything new still fails the
// run. Entries match on (check, file, message) — deliberately not on
// line numbers, so unrelated edits that shift code do not resurrect
// baselined findings. An entry no finding matches fails the run too, so
// a baseline only shrinks: use it with the checks and packages it was
// written for.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/lint"
)

type baselineEntry struct {
	Check   string `json:"check"`
	File    string `json:"file"`
	Message string `json:"message"`
}

type baselineFile struct {
	Entries []baselineEntry `json:"entries"`
}

// key is e with its file in slash form: the multiset's match key.
func (e baselineEntry) key() baselineEntry {
	e.File = filepath.ToSlash(e.File)
	return e
}

// writeBaseline records diags as the new baseline at path.
func writeBaseline(path string, diags []lint.Diagnostic) error {
	bf := baselineFile{Entries: make([]baselineEntry, 0, len(diags))}
	for _, d := range diags {
		bf.Entries = append(bf.Entries, baselineEntry{
			Check:   d.Check,
			File:    filepath.ToSlash(d.Pos.Filename),
			Message: d.Msg,
		})
	}
	data, err := json.MarshalIndent(bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// loadBaseline reads a baseline file into a multiset of match keys: a
// finding that occurs twice must be baselined twice.
func loadBaseline(path string) (map[baselineEntry]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	set := map[baselineEntry]int{}
	for _, e := range bf.Entries {
		set[e.key()]++
	}
	return set, nil
}

// filterBaseline drops findings covered by the baseline multiset. It
// returns the surviving findings and the stale entries, those no finding
// consumed, rendered as "file: [check] message" in sorted order.
func filterBaseline(diags []lint.Diagnostic, set map[baselineEntry]int) (out []lint.Diagnostic, stale []string) {
	out = diags[:0]
	for _, d := range diags {
		k := baselineEntry{d.Check, d.Pos.Filename, d.Msg}.key()
		if set[k] > 0 {
			set[k]--
			continue
		}
		out = append(out, d)
	}
	for k, n := range set {
		for ; n > 0; n-- {
			stale = append(stale, fmt.Sprintf("%s: [%s] %s", k.File, k.Check, k.Message))
		}
	}
	sort.Strings(stale)
	return out, stale
}
