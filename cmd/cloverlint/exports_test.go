package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"cloversim/internal/lint"
)

// seams are exports that only tests call, each kept on purpose: the
// value names the tests that read it. Keys are as exportKey prints them.
var seams = map[string]string{
	"cloversim/internal/cloverleaf.Rank.Time":        "internal/cloverleaf TestSodShockTube, TestEndTimeClamping",
	"cloversim/internal/core.StoreEngine.Context":    "internal/core TestNTStoresBypass, TestNTRevertsUnderLoad",
	"cloversim/internal/core.StoreEngine.Eff":        "internal/core TestSetContextRecomputesEff",
	"cloversim/internal/core.StoreEngine.Stats":      "internal/core TestEngineHandsOverEveryRetiredLine, TestRewindReplaysTheSameLines, internal/trace TestRunMatchesPlainReplay",
	"cloversim/internal/core.StoreEngine.Validate":   "internal/core's newEngine helper",
	"cloversim/internal/lint/linttest.Run":           "internal/lint TestMapIter, TestExactBits, TestCtxFlow, TestNonDet, TestAllowHygiene",
	"cloversim/internal/machine.AllPresets":          "internal/machine TestAllPresetsValidate, internal/memsim TestHierarchyFootprint",
	"cloversim/internal/machine.Spec.Validate":       "internal/machine TestAllPresetsValidate",
	"cloversim/internal/memsim.Counts.Sub":           "internal/memsim TestCountsArithmetic, internal/trace TestRunMatchesPlainReplay",
	"cloversim/internal/memsim.Hierarchy.DirtyLines": "internal/memsim TestFlushIdempotent and the oracle comparison of TestAccessRangeDifferential",
	"cloversim/internal/sweep.AllModes":              "internal/sweep TestModeTablesConsistent, TestStoreRoundTripMatchesColdRun",
	"cloversim/internal/trace.Loop.Validate":         "internal/trace TestCountHelpers",
	"cloversim/internal/trace.Memo.Stats":            "internal/trace TestMemoSingleFlight, TestSharedMemoMatchesFreshReplays, internal/sweepcli TestE2ELoopMemoPerInvocation, internal/sweepd TestSecondExpandReplaysNoLoop, cloversim TestRankList",
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
// so a chain of exports only tests reach is named link by link.
//
// A concrete method M of type T counts as called through an interface
// only where shipped code converts a T or *T to an interface declaring
// M, and then only if some interface method named M is called, or the
// interface is declared outside these modules (the standard library
// calls error.Error, http.Handler.ServeHTTP, …). A T converted to an
// empty interface, such as a fmt argument, counts for the methods fmt
// calls: String, Error, Format and GoString. The conversion is found
// in the converting package, where both types are checked together;
// types.Implements across packages would compare types from different
// type-checks.
func TestEveryExportIsCalled(t *testing.T) {
	var pkgs []*lint.Package
	local := map[string]bool{} // package paths of both modules
	for _, dir := range []string{"../..", "../../benchmark"} {
		p, err := lint.Load(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range p {
			local[pkg.PkgPath] = true
		}
		pkgs = append(pkgs, p...)
	}

	type ref struct {
		from string // the enclosing function's key; "" outside any function
		to   *types.Func
	}
	// conv is a concrete method a conversion to an interface reaches.
	type conv struct {
		from    string
		method  *types.Func
		outside bool // called by code outside these modules, not by name
	}
	var refs []ref
	var convs []conv
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
				conversions(p.Info, decl, func(to, v types.Type) {
					if to == nil || v == nil || !types.IsInterface(to) || types.IsInterface(v) {
						return
					}
					reach := func(name string, outside bool) {
						obj, _, _ := types.LookupFieldOrMethod(v, false, nil, name)
						if f, ok := obj.(*types.Func); ok {
							convs = append(convs, conv{from, f, outside})
						}
					}
					iface := to.Underlying().(*types.Interface)
					if iface.Empty() {
						for _, name := range []string{"String", "Error", "Format", "GoString"} {
							reach(name, true)
						}
					}
					for i := 0; i < iface.NumMethods(); i++ {
						m := iface.Method(i)
						if m.Exported() {
							reach(m.Name(), m.Pkg() == nil || !local[m.Pkg().Path()])
						}
					}
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
		for _, c := range convs {
			if !uncalled[c.from] && (c.outside || calledAbstract[c.method.Name()]) {
				called[exportKey(c.method)] = true
			}
		}
		grew := false
		for _, f := range exports {
			key := exportKey(f)
			if uncalled[key] || called[key] {
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

// conversions calls visit(to, v) for each place in decl where a value
// of type v is assigned to a variable, field, element, parameter or
// result of type to, or converted to it: the places where a concrete
// value can become an interface value. Blank conformance declarations
// (var _ I = T{}) convert nothing that is used, so they do not count.
func conversions(info *types.Info, decl ast.Decl, visit func(to, v types.Type)) {
	// pair visits values against targets, spreading a tuple-valued
	// call (or comma-ok form) over several targets.
	pair := func(targets []types.Type, values []ast.Expr) {
		if len(values) == 1 && len(targets) > 1 {
			if tup, ok := info.TypeOf(values[0]).(*types.Tuple); ok {
				for i := 0; i < tup.Len() && i < len(targets); i++ {
					visit(targets[i], tup.At(i).Type())
				}
			}
			return
		}
		for i, v := range values {
			if i < len(targets) {
				visit(targets[i], info.TypeOf(v))
			}
		}
	}
	tupleTypes := func(tup *types.Tuple) []types.Type {
		out := make([]types.Type, tup.Len())
		for i := range out {
			out[i] = tup.At(i).Type()
		}
		return out
	}
	var results []*types.Tuple // result types of the enclosing functions, innermost last
	var stack []ast.Node
	ast.Inspect(decl, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				results = results[:len(results)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			results = append(results, info.Defs[n.Name].Type().(*types.Signature).Results())
		case *ast.FuncLit:
			results = append(results, info.TypeOf(n).(*types.Signature).Results())
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				targets := make([]types.Type, len(n.Lhs))
				for i, l := range n.Lhs {
					targets[i] = info.TypeOf(l)
				}
				pair(targets, n.Rhs)
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				targets := make([]types.Type, len(n.Names))
				for i, name := range n.Names {
					if name.Name != "_" {
						targets[i] = info.TypeOf(n.Type)
					}
				}
				pair(targets, n.Values)
			}
		case *ast.ReturnStmt:
			if len(results) > 0 {
				pair(tupleTypes(results[len(results)-1]), n.Results)
			}
		case *ast.SendStmt:
			if ch, ok := info.TypeOf(n.Chan).Underlying().(*types.Chan); ok {
				visit(ch.Elem(), info.TypeOf(n.Value))
			}
		case *ast.CallExpr:
			fn := info.Types[n.Fun]
			if fn.IsType() {
				pair([]types.Type{fn.Type}, n.Args)
				break
			}
			sig, ok := fn.Type.(*types.Signature)
			if !ok {
				break
			}
			params := tupleTypes(sig.Params())
			if sig.Variadic() && !n.Ellipsis.IsValid() {
				elem := params[len(params)-1].(*types.Slice).Elem()
				params = params[:len(params)-1]
				for len(params) < len(n.Args) {
					params = append(params, elem)
				}
			}
			pair(params, n.Args)
		case *ast.CompositeLit:
			typ := info.TypeOf(n)
			if ptr, ok := typ.Underlying().(*types.Pointer); ok {
				typ = ptr.Elem() // an elided &T in a composite literal
			}
			for i, elt := range n.Elts {
				key, val := ast.Expr(nil), elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					key, val = kv.Key, kv.Value
				}
				switch u := typ.Underlying().(type) {
				case *types.Struct:
					if key != nil {
						visit(info.TypeOf(key), info.TypeOf(val))
					} else {
						visit(u.Field(i).Type(), info.TypeOf(val))
					}
				case *types.Slice:
					visit(u.Elem(), info.TypeOf(val))
				case *types.Array:
					visit(u.Elem(), info.TypeOf(val))
				case *types.Map:
					visit(u.Key(), info.TypeOf(key))
					visit(u.Elem(), info.TypeOf(val))
				}
			}
		}
		return true
	})
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
