package lint

// All is the cloverlint suite, in reporting order.
var All = []*Analyzer{MapIter, ExactBits, CtxFlow, NonDet}

// Names returns the analyzer names of All (the valid //lint:allow
// targets).
func Names() []string {
	names := make([]string, len(All))
	for i, a := range All {
		names[i] = a.Name
	}
	return names
}

// ByName returns the analyzers matching the given names.
func ByName(names []string) ([]*Analyzer, bool) {
	var out []*Analyzer
	for _, n := range names {
		found := false
		for _, a := range All {
			if a.Name == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}

// determinismPkgs are the packages whose outputs must be byte-identical
// across runs, schedules, and deployment shapes (local pool, fleet,
// streamed): the campaign execution path and every wire/disk format it
// feeds. mapiter and exactbits are scoped here.
var determinismPkgs = []string{
	"cloversim/internal/search",
	"cloversim/internal/sweep",
	"cloversim/internal/store",
	"cloversim/internal/sweepd",
	"cloversim/internal/dispatch",
	"cloversim/internal/memsim",
	"cloversim/internal/workload",
}

// nondetPkgs are the packages where wall clocks, PIDs, and entropy may
// not appear unannotated: the physics/simulation core (results are a
// pure function of the scenario config) plus the determinism-critical
// execution path above. Scheduling-only timing code inside these
// packages (dispatch's straggler timers) carries an explicit
// //lint:allow nondet <reason>.
var nondetPkgs = append([]string{
	"cloversim",
	"cloversim/internal/cloverleaf",
	"cloversim/internal/model",
	"cloversim/internal/trace",
	"cloversim/internal/machine",
	"cloversim/internal/riemann",
}, determinismPkgs...)
