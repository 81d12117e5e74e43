// Command cvlint statically checks uses of the condvar/STM API for the
// misuse patterns the Go type system cannot reject: transactions escaping
// their atomic block, un-deferred side effects inside transaction bodies
// (through any depth of helper calls), direct Var access mixed with
// transactional access, condvar waits with no predicate re-check loop,
// notifies that advertise no state change, predicate writes that strand
// parked waiters, and blocking operations reachable from optimistic
// transaction bodies.
//
// Usage:
//
//	cvlint [flags] [packages]
//
//	cvlint ./...                      # whole module (the CI invocation)
//	cvlint -checks waitloop ./...     # one analyzer
//	cvlint -tests ./internal/core     # include in-package _test.go files
//	cvlint -format sarif ./...        # machine-readable output (json|sarif)
//	cvlint -baseline lint.base ./...  # suppress known historical findings
//	cvlint -list                      # describe the analyzer suite
//
// Exit status is 1 when diagnostics are reported or a -baseline entry
// matches no finding, 2 on usage or load errors. Suppress an individual
// finding with a justified directive:
//
//	n.next.StoreDirect(nil) // cvlint:ignore directstore node is private here
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command, factored for tests: parse flags, load, lint,
// render. Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cvlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "all", "comma-separated checks to run (see -list)")
	tests := fs.Bool("tests", false, "also analyze in-package _test.go files")
	list := fs.Bool("list", false, "list the analyzers and exit")
	debug := fs.Bool("debug", false, "print soft type-check errors (analysis is best-effort under them)")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	baselinePath := fs.String("baseline", "", "suppress findings recorded in this baseline file")
	writeBaselinePath := fs.String("write-baseline", "", "record current findings to this baseline file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "cvlint: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}
	analyzers, err := lint.ByName(*checks)
	if err != nil {
		return fail(stderr, err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		return fail(stderr, err)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		return fail(stderr, err)
	}
	loader.IncludeTests = *tests
	dirs, err := lint.ExpandPatterns(cwd, fs.Args())
	if err != nil {
		return fail(stderr, err)
	}

	pkgs := make([]*lint.Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			return fail(stderr, fmt.Errorf("loading %s: %w", dir, err))
		}
		if *debug {
			for _, te := range pkg.TypeErrors {
				fmt.Fprintf(stderr, "cvlint: typecheck %s: %v\n", pkg.Path, te)
			}
		}
		pkgs = append(pkgs, pkg)
	}
	mod := lint.NewModule(loader, pkgs...)
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, lint.Run(mod, pkg, analyzers)...)
	}

	// Render (and baseline-match) with paths relative to the invocation
	// directory, as CI and humans expect.
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil {
			diags[i].Pos.Filename = rel
		}
	}

	if *writeBaselinePath != "" {
		if err := writeBaseline(*writeBaselinePath, diags); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "cvlint: wrote baseline with %d finding(s) to %s\n", len(diags), *writeBaselinePath)
		return 0
	}
	var stale []string
	if *baselinePath != "" {
		set, err := loadBaseline(*baselinePath)
		if err != nil {
			return fail(stderr, err)
		}
		diags, stale = filterBaseline(diags, set)
	}

	switch *format {
	case "json":
		err = writeJSON(stdout, diags)
	case "sarif":
		err = writeSARIF(stdout, analyzers, diags)
	default:
		err = writeText(stdout, diags)
	}
	if err != nil {
		return fail(stderr, err)
	}
	for _, e := range stale {
		fmt.Fprintf(stderr, "cvlint: stale baseline entry, no finding matches it: %s\n", e)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "cvlint: %d problem(s) found\n", len(diags))
	}
	if len(diags) > 0 || len(stale) > 0 {
		return 1
	}
	return 0
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "cvlint:", err)
	return 2
}
