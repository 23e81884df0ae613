package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCIPatternsNameTests fails when a -run or -fuzz pattern of a `go
// test` command in CI or the Makefile has an alternative that names no
// Test, Fuzz or Benchmark function of the packages the command tests.
// go test passes with "no tests to run" when a pattern matches nothing,
// so renaming a test would otherwise switch its CI gate off silently.
//
// A command's packages are its arguments that are relative paths
// (".", "./internal/memsim", "./..."), taken from the directory a -C
// flag names. Each |-alternative of the pattern's top level (the part
// before any "/" subtest separator) must match, unanchored as go test
// matches it, a function declared in those packages' _test.go files.
// -run=NONE, the idiom for running no test, is skipped, and so is a
// command without a pattern.
func TestCIPatternsNameTests(t *testing.T) {
	const root = "../.."
	commands := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		b, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			dir, args, ok := goTestArgs(line)
			if !ok {
				continue
			}
			where := fmt.Sprintf("%s:%d", file, i+1)
			var patterns, pkgs []string
			for j := 0; j < len(args); j++ {
				a := strings.Trim(args[j], `'"`)
				switch {
				case a == "-run" || a == "-fuzz":
					if j+1 < len(args) {
						j++
						patterns = append(patterns, strings.Trim(args[j], `'"`))
					}
				case strings.HasPrefix(a, "-run=") || strings.HasPrefix(a, "-fuzz="):
					_, p, _ := strings.Cut(a, "=")
					patterns = append(patterns, strings.Trim(p, `'"`))
				case strings.HasPrefix(a, "."):
					pkgs = append(pkgs, a)
				}
			}
			patterns = slices.DeleteFunc(patterns, func(p string) bool { return p == "NONE" })
			if len(patterns) == 0 {
				continue
			}
			commands++
			var names []string
			for _, p := range pkgs {
				n, err := testFuncs(filepath.Join(root, dir), p)
				if err != nil {
					t.Errorf("%s: %v", where, err)
				}
				names = append(names, n...)
			}
			for _, p := range patterns {
				top, _, _ := strings.Cut(p, "/")
				for _, alt := range strings.Split(top, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s: pattern %q: %v", where, alt, err)
						continue
					}
					if !slices.ContainsFunc(names, re.MatchString) {
						t.Errorf("%s: %q matches no test, fuzz target or benchmark in %v", where, alt, pkgs)
					}
				}
			}
		}
	}
	if commands == 0 {
		t.Fatal("found no go test command with a -run or -fuzz pattern in CI or the Makefile")
	}
	t.Logf("checked the patterns of %d go test commands", commands)
}

// goTestArgs splits a line that runs `go test` (or `$(GO) test`) into
// the directory a -C flag names ("." without one) and the arguments
// after "test".
func goTestArgs(line string) (dir string, args []string, ok bool) {
	f := strings.Fields(line)
	for i, tok := range f {
		if tok != "go" && tok != "$(GO)" {
			continue
		}
		rest, dir := f[i+1:], "."
		if len(rest) >= 2 && rest[0] == "-C" {
			dir, rest = rest[1], rest[2:]
		}
		if len(rest) > 0 && rest[0] == "test" {
			return dir, rest[1:], true
		}
	}
	return "", nil, false
}

// testFuncs returns the Test, Fuzz and Benchmark functions declared in
// the _test.go files of package path pkg under base; a path ending in
// "/..." covers every package below it in the same module.
func testFuncs(base, pkg string) ([]string, error) {
	dir, recursive := strings.CutSuffix(pkg, "/...")
	dir = filepath.Join(base, dir)
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir {
				if !recursive || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir // another module
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				if n := fn.Name.Name; strings.HasPrefix(n, "Test") || strings.HasPrefix(n, "Fuzz") || strings.HasPrefix(n, "Benchmark") {
					names = append(names, n)
				}
			}
		}
		return nil
	})
	return names, err
}
