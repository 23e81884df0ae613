package main

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"cloversim/internal/lint"
)

// seams are exports that only tests call, each kept on purpose: the
// value names the tests that read it. Keys are as exportKey prints them.
var seams = map[string]string{
	"cloversim.AverageRatio":                         "TestFigureHaloCopyOrdering",
	"cloversim/internal/cloverleaf.Rank.Time":        "internal/cloverleaf TestSodShockTube, TestEndTimeClamping",
	"cloversim/internal/core.StoreEngine.Context":    "internal/core TestNTStoresBypass, TestNTRevertsUnderLoad",
	"cloversim/internal/core.StoreEngine.Eff":        "internal/core TestSetContextRecomputesEff",
	"cloversim/internal/core.StoreEngine.Validate":   "internal/core's newEngine helper",
	"cloversim/internal/lint/linttest.Run":           "internal/lint TestMapIter, TestExactBits, TestCtxFlow, TestNonDet, TestAllowHygiene",
	"cloversim/internal/machine.AllPresets":          "internal/machine TestAllPresetsValidate, internal/memsim TestHierarchyFootprint",
	"cloversim/internal/machine.Spec.Validate":       "internal/machine TestAllPresetsValidate",
	"cloversim/internal/memsim.Counts.Sub":           "internal/memsim TestCountsArithmetic, internal/trace TestRunMatchesPlainReplay",
	"cloversim/internal/memsim.Hierarchy.DirtyLines": "internal/memsim TestFlushIdempotent and the oracle comparison of TestAccessRangeDifferential",
	"cloversim/internal/profiler.Profile.Share":      "internal/profiler TestShare, TestListing2ProfileShape",
	"cloversim/internal/sweep.AllModes":              "internal/sweep TestModeTablesConsistent, TestStoreRoundTripMatchesColdRun",
	"cloversim/internal/sweep.Engine.CacheSize":      "internal/sweep TestCacheHitsViaRunCounter",
	"cloversim/internal/trace.Loop.Validate":         "internal/trace TestCountHelpers",
}

// TestEveryExportIsCalled fails when an exported function, method or
// interface method of a non-main package has no caller in the shipped
// code of this module or of the campaign benchmark module (benchmark/,
// its own module). The module path has no host, so nothing outside
// these two modules can call an export; one that only tests reach is
// code for a caller that never came. Delete it, move it into its
// package's export_test.go, or list it in seams with the test that
// reads it.
//
// Every package is type-checked on its own against its imports' export
// data, so one function is a different types.Object in each package
// that uses it: objects are keyed by package path, receiver and name.
// A call made from inside an export that has no caller does not count,
// so a chain of exports only tests reach is named link by link. A
// concrete method counts as called when an interface method of the
// same name is called, since a call through an interface reaches every
// implementation.
func TestEveryExportIsCalled(t *testing.T) {
	var pkgs []*lint.Package
	for _, dir := range []string{"../..", "../../benchmark"} {
		p, err := lint.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p...)
	}

	type ref struct {
		from string // the enclosing function's key; "" outside any function
		to   *types.Func
	}
	var refs []ref
	var exports []*types.Func // functions, methods and interface methods
	for _, p := range pkgs {
		for _, obj := range p.Info.Defs {
			if f, ok := obj.(*types.Func); ok && p.Types.Name() != "main" && f.Exported() && receiverExported(f) {
				exports = append(exports, f)
			}
		}
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				from := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					from = exportKey(p.Info.Defs[fd.Name].(*types.Func))
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if to, ok := p.Info.Uses[id].(*types.Func); ok {
							refs = append(refs, ref{from, to})
						}
					}
					return true
				})
			}
		}
	}
	declared := map[string]bool{}
	for _, f := range exports {
		declared[exportKey(f)] = true
	}
	for key := range seams {
		if !declared[key] {
			t.Errorf("seam %s names no export: drop it from seams", key)
		}
	}

	// Grow the set of uncalled exports until calls from inside it no
	// longer keep anything else alive.
	uncalled := map[string]bool{}
	for {
		called := map[string]bool{}
		calledAbstract := map[string]bool{} // interface method names with a caller
		for _, r := range refs {
			if uncalled[r.from] {
				continue
			}
			called[exportKey(r.to)] = true
			if isAbstract(r.to) {
				calledAbstract[r.to.Name()] = true
			}
		}
		grew := false
		for _, f := range exports {
			key := exportKey(f)
			concrete := recvNamed(f) != nil && !isAbstract(f)
			if uncalled[key] || called[key] || (concrete && calledAbstract[f.Name()]) {
				continue
			}
			if _, ok := seams[key]; ok {
				continue
			}
			uncalled[key] = true
			grew = true
		}
		if !grew {
			for key, test := range seams {
				if called[key] {
					t.Errorf("%s is listed as a seam for %s but shipped code calls it: drop it from seams", key, test)
				}
			}
			break
		}
	}

	missing := make([]string, 0, len(uncalled))
	for key := range uncalled {
		missing = append(missing, key)
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("%d exports have no caller outside tests:\n\t%s", len(missing), strings.Join(missing, "\n\t"))
	}
}

// exportKey names f as "pkgpath.Recv.Name" for a method and
// "pkgpath.Name" for a function.
func exportKey(f *types.Func) string {
	f = f.Origin()
	key := "." // error.Error has no package
	if f.Pkg() != nil {
		key = f.Pkg().Path() + "."
	}
	if r := recvNamed(f); r != nil {
		key += r.Obj().Name() + "."
	}
	return key + f.Name()
}

// isAbstract reports whether f is an interface method.
func isAbstract(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// recvNamed returns the named type f is declared on, or nil for a
// function or a method of an unnamed interface.
func recvNamed(f *types.Func) *types.Named {
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

// receiverExported reports whether f is a function or a method of an
// exported type: only those can be reached from another package
// without an interface.
func receiverExported(f *types.Func) bool {
	if f.Type().(*types.Signature).Recv() == nil {
		return true
	}
	r := recvNamed(f)
	return r != nil && r.Obj().Exported()
}
