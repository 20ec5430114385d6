// Command helixlint runs the repo's custom static analyzers
// (internal/lint) over Go packages and exits non-zero on any finding.
//
// Usage:
//
//	helixlint [-disable a,b] [-v] [packages]
//
// Packages default to ./... resolved against the current directory. The
// -disable flag turns off the named analyzers (comma-separated); -v
// echoes every directive-based exemption with its recorded reason, so
// waived findings stay visible.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"helix/internal/lint"
)

func main() {
	disable := flag.String("disable", "", "comma-separated analyzer names to skip")
	verbose := flag.Bool("v", false, "echo exempted findings with their reasons")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: helixlint [-disable a,b] [-v] [packages]\n\nanalyzers:\n")
		for _, a := range lint.Suite() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-18s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	disabled := make(map[string]bool)
	for _, name := range strings.Split(*disable, ",") {
		if name = strings.TrimSpace(name); name != "" {
			disabled[name] = true
		}
	}
	known := make(map[string]bool)
	var analyzers []*lint.Analyzer
	for _, a := range lint.Suite() {
		known[a.Name] = true
		if !disabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}
	for name := range disabled {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "helixlint: unknown analyzer %q\n", name)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "helixlint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := lint.Load([]string{cwd}, patterns, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "helixlint: %v\n", err)
		os.Exit(2)
	}

	failed := false
	for _, pkg := range pkgs {
		diags, sups := lint.RunSuite(pkg.NewPass(), analyzers)
		if *verbose {
			for _, s := range sups {
				fmt.Fprintf(os.Stdout, "%s: exempt: %s (%s)\n",
					relPos(cwd, s.Diagnostic), s.Diagnostic.Message, s.Reason)
			}
		}
		for _, d := range diags {
			failed = true
			fmt.Fprintf(os.Stdout, "%s: %s: %s\n", relPos(cwd, d), d.Analyzer, d.Message)
		}
	}
	if failed {
		os.Exit(1)
	}
}

func relPos(cwd string, d lint.Diagnostic) string {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(cwd, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return fmt.Sprintf("%s:%d:%d", file, d.Pos.Line, d.Pos.Column)
}
