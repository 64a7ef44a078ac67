// Package suppressed is lint-clean only because of its //physched:
// suppression directives. The suppression-audit tests run it twice:
// once normally (expecting zero findings) and once with suppressions
// stripped or ignored (expecting every hidden finding to reappear).
// This pins the rot-loudly contract: deleting the code a suppression
// excuses must resurface the directive as an error, and deleting the
// directive must resurface the finding.
package suppressed

import "time"

// now reads the wall clock; the walltime directive is the only thing
// keeping it quiet.
func now() time.Time {
	//physched:walltime fixture: clock read hidden on purpose for the audit test
	return time.Now()
}

// total sums floats in iteration order; the orderinvariant directive
// is the only thing keeping it quiet.
func total(m map[string]float64) float64 {
	var sum float64
	//physched:orderinvariant fixture: rounding order hidden on purpose for the audit test
	for _, v := range m {
		sum += v
	}
	return sum
}
