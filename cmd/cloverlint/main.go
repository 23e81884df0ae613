// Command cloverlint runs the repo's invariant analyzer suite
// (internal/lint): mapiter, exactbits, ctxflow, nondet.
//
// Usage:
//
//	cloverlint [-only a,b] [packages...]     # default ./...
//
// Exit codes: 0 clean, 1 findings, 2 usage/load failure — the same
// contract as cmd/sweep.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cloversim/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cloverlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listFlag = fs.Bool("list", false, "list analyzers and exit")
		onlyFlag = fs.String("only", "", "comma-separated analyzer subset to run")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cloverlint [-only a,b] [packages...]\n\nanalyzers:\n")
		for _, a := range lint.All {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFlag {
		for _, a := range lint.All {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All
	if *onlyFlag != "" {
		var ok bool
		if analyzers, ok = lint.ByName(strings.Split(*onlyFlag, ",")); !ok {
			fmt.Fprintf(stderr, "cloverlint: unknown analyzer in -only=%s\n", *onlyFlag)
			return 2
		}
	}

	pkgs, err := lint.Load(".", fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "cloverlint: %v\n", err)
		return 2
	}
	findings := 0
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, analyzers, lint.Names())
		if err != nil {
			fmt.Fprintf(stderr, "cloverlint: %v\n", err)
			return 2
		}
		for _, d := range diags {
			fmt.Fprintln(stdout, relativize(d))
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "cloverlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// relativize renders a diagnostic with the filename relative to the
// working directory when possible — shorter, clickable output.
func relativize(d lint.Diagnostic) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			d.Pos.Filename = rel
		}
	}
	return d.String()
}
