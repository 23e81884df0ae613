package lint

import (
	"go/ast"
	"go/types"
)

// NonDet flags sources of nondeterminism — wall clocks, random number
// generators, process identity — inside the physics/simulation and
// determinism-critical packages. A scenario's metrics must be a pure
// function of its config: entropy anywhere on that path can split
// byte-identical campaigns between two runs or two fleet workers.
// Scheduling-only timing code (dispatch's straggler timers) is
// legitimate but must say so: //lint:allow nondet <reason>.
var NonDet = &Analyzer{
	Name: "nondet",
	Doc:  "flag wall-clock, RNG, and process-identity entropy in simulation and determinism-critical packages",
	Run:  runNonDet,
}

// nondetBannedPkgs are packages any reference into which is entropy.
var nondetBannedPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// nondetBannedFuncs are specific entropy-bearing functions in
// otherwise fine packages.
var nondetBannedFuncs = map[string]map[string]bool{
	"time": {
		"Now": true, "Since": true, "Until": true,
		"Tick": true, "After": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true,
	},
	"os": {
		"Getpid": true, "Getppid": true, "Hostname": true,
	},
}

func runNonDet(p *Pass) error {
	if !pkgScope(p.PkgPath, nondetPkgs) {
		return nil
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := p.TypesInfo.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			path := pn.Imported().Path()
			if nondetBannedPkgs[path] {
				p.Report(sel.Pos(), "%s.%s is an entropy source in a determinism-scoped package; results must be a pure function of the scenario config (annotate epoch/heartbeat code with //lint:allow nondet <reason>)", pn.Imported().Name(), sel.Sel.Name)
				return true
			}
			if fns, ok := nondetBannedFuncs[path]; ok && fns[sel.Sel.Name] {
				p.Report(sel.Pos(), "%s.%s is nondeterministic in a determinism-scoped package; results must be a pure function of the scenario config (annotate epoch/heartbeat code with //lint:allow nondet <reason>)", path, sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}
