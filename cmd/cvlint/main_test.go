package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// exec invokes run() as the command would, capturing both streams.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// golden compares got against testdata/<name>, rewriting the file when
// UPDATE_GOLDEN is set.
func golden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden %s: %v", path, err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden %s: %v (run with UPDATE_GOLDEN=1 to create)", path, err)
	}
	if got != string(want) {
		t.Errorf("output differs from golden %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

func TestListExitsZero(t *testing.T) {
	code, out, _ := exec(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	for _, name := range []string{"txescape", "impuretxn", "directstore", "waitloop", "nakednotify", "lostwakeup", "lockorder"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %q", name)
		}
	}
}

func TestUnknownFormatIsUsageError(t *testing.T) {
	code, _, errb := exec(t, "-format", "xml", "./testdata/src/report")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errb, "unknown -format") {
		t.Errorf("stderr = %q, want unknown-format message", errb)
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, out, errb := exec(t, "./testdata/src/clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0\nstdout: %s\nstderr: %s", code, out, errb)
	}
	if out != "" {
		t.Errorf("stdout = %q, want empty", out)
	}
}

// TestFindingsExitNonZero pins the regression contract: findings mean
// exit 1 in every output format, with the rendered output golden-stable.
func TestFindingsExitNonZero(t *testing.T) {
	cases := []struct {
		format string
		golden string
	}{
		{"text", "report.txt.golden"},
		{"json", "report.json.golden"},
		{"sarif", "report.sarif.golden"},
	}
	for _, tc := range cases {
		t.Run(tc.format, func(t *testing.T) {
			code, out, errb := exec(t, "-format", tc.format, "./testdata/src/report")
			if code != 1 {
				t.Fatalf("exit = %d, want 1\nstderr: %s", code, errb)
			}
			if !strings.Contains(errb, "2 problem(s) found") {
				t.Errorf("stderr = %q, want problem count", errb)
			}
			golden(t, tc.golden, out)
		})
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	base := filepath.Join(t.TempDir(), "lint.base")
	code, _, errb := exec(t, "-write-baseline", base, "./testdata/src/report")
	if code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0\nstderr: %s", code, errb)
	}
	if !strings.Contains(errb, "wrote baseline with 2 finding(s)") {
		t.Errorf("stderr = %q, want baseline summary", errb)
	}

	code, out, errb := exec(t, "-baseline", base, "./testdata/src/report")
	if code != 0 {
		t.Fatalf("baselined run exit = %d, want 0\nstdout: %s\nstderr: %s", code, out, errb)
	}

	// A baseline for one check still fails the run on the other finding.
	code, _, _ = exec(t, "-checks", "impuretxn", "-write-baseline", base, "./testdata/src/report")
	if code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0", code)
	}
	code, out, _ = exec(t, "-baseline", base, "./testdata/src/report")
	if code != 1 {
		t.Fatalf("partially baselined run exit = %d, want 1", code)
	}
	if !strings.Contains(out, "txescape") || strings.Contains(out, "impuretxn") {
		t.Errorf("surviving findings = %q, want txescape only", out)
	}

	// An entry no finding consumes fails the run and is named, even when
	// every finding is covered: the baseline may only shrink.
	code, _, _ = exec(t, "-write-baseline", base, "./testdata/src/report")
	if code != 0 {
		t.Fatalf("write-baseline exit = %d, want 0", code)
	}
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var bf baselineFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	extra := baselineEntry{Check: "waitloop", File: "testdata/src/report/gone.go", Message: "fixed long ago"}
	bf.Entries = append(bf.Entries, extra)
	if data, err = json.Marshal(bf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(base, data, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errb = exec(t, "-baseline", base, "./testdata/src/report")
	if code != 1 {
		t.Fatalf("stale-baseline run exit = %d, want 1\nstdout: %s\nstderr: %s", code, out, errb)
	}
	want := "stale baseline entry, no finding matches it: testdata/src/report/gone.go: [waitloop] fixed long ago"
	if out != "" || !strings.Contains(errb, want) || strings.Count(errb, "stale baseline entry") != 1 {
		t.Errorf("stale-baseline run: stdout %q, stderr %q; want no findings and one stale entry %q", out, errb, want)
	}
}
