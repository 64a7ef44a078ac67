// Package sabotage deliberately violates each remaining physchedlint
// contract (detrand, walltime, maporder, physcheddirective) so tests can
// prove the multichecker exits nonzero end to end. It is never built by
// ./... wildcards (testdata is wildcard-invisible) — only explicit paths
// reach it.
package sabotage

import (
	"math/rand"
	"time"
)

//physched:typo this directive verb does not exist
func bad() {}

// jitter draws from the shared math/rand source: detrand sabotage.
func jitter() float64 {
	return rand.Float64()
}

// stamp reads the wall clock inside the determinism boundary: walltime
// sabotage.
func stamp() time.Time {
	return time.Now()
}

// keys returns map keys in iteration order: maporder sabotage.
func keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
