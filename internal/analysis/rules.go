package analysis

import (
	"strings"

	"physched/internal/analysis/driver"
)

// detPackages are the packages whose results must be bit-deterministic:
// the sim core and everything a simulation result flows through. Global
// rand, wall clock and order-sensitive map iteration are banned here.
// The list is prefix-matched so future subpackages inherit the contract.
var detPackages = []string{
	"physched/internal/sim",
	"physched/internal/sched",
	"physched/internal/cluster",
	"physched/internal/workload",
	"physched/internal/lab",
	"physched/internal/opt",
	"physched/internal/stats",
	// Sim-core support packages: equally inside the determinism boundary.
	"physched/internal/cache",
	"physched/internal/dataspace",
	"physched/internal/freelist",
	"physched/internal/job",
	"physched/internal/metrics",
	"physched/internal/model",
	"physched/internal/queueing",
	"physched/internal/spec",
	"physched/internal/simtest",
	"physched/internal/trace",
	"physched/internal/asciiplot",
	"physched/internal/experiments",
}

// walltimeExtra are service-layer packages additionally registered for
// the walltime analyzer even though they are not deterministic: their
// wall-clock reads must be injected clocks, with the single wiring site
// carrying a //physched:walltime suppression. Since the observability
// layer landed, that site is obs.SystemClock — the one sanctioned
// real-clock read the whole service stack (logging timestamps, request
// latency, job ages, pool hook nanos) funnels through. This is the
// shrunken allowlist: everything NOT listed here or in detPackages
// (resultcache disk I/O, the remaining cmds, examples) may read the
// clock freely.
var walltimeExtra = []string{
	"physched/cmd/physchedd",
	"physched/internal/obs",
}

// randBanExtra extends the global-rand ban beyond deterministic packages:
// service cmds must not draw from the shared source either (job IDs use
// crypto/rand; scenario randomness comes from seeded streams).
var randBanExtra = []string{
	"physched/cmd",
}

func matchesAny(pkgPath string, prefixes []string) bool {
	for _, p := range prefixes {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// isDeterministic reports whether pkgPath is inside the determinism
// boundary. The root facade package is matched exactly — a bare
// "physched" prefix would swallow the whole module, including this
// linter.
func isDeterministic(pkgPath string) bool {
	return pkgPath == "physched" || matchesAny(pkgPath, detPackages)
}

// Analyzers lists the whole suite, for documentation and fixture tests.
func Analyzers() []*driver.Analyzer {
	return []*driver.Analyzer{DetRand, WallTime, MapOrder, Directive}
}

// Rules decides which analyzers run on which package — the multichecker
// configuration. Directive runs everywhere (a malformed annotation is a
// bug in any package); the determinism analyzers are scoped to the
// packages whose contract they enforce.
func Rules(pkg *driver.Package) []*driver.Analyzer {
	as := []*driver.Analyzer{Directive}
	det := isDeterministic(pkg.PkgPath)
	if det || matchesAny(pkg.PkgPath, randBanExtra) {
		as = append(as, DetRand)
	}
	if det || matchesAny(pkg.PkgPath, walltimeExtra) {
		as = append(as, WallTime)
	}
	if det {
		as = append(as, MapOrder)
	}
	return as
}

// Lint loads patterns rooted at dir and runs the rule-scoped suite,
// returning position-sorted diagnostics. This is the one entry point
// shared by cmd/physchedlint and the sabotage tests.
func Lint(dir string, patterns ...string) ([]driver.Diagnostic, error) {
	pkgs, err := driver.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return driver.Run(pkgs, Rules)
}
