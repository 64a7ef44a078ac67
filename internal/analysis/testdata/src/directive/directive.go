// Package directive is a fixture for the physcheddirective analyzer:
// the //physched: annotation grammar is real syntax — unknown verbs,
// missing reasons and misplaced annotations are findings.
package directive

import (
	"sort"
	"time"
)

//physched:frobnicate turbo mode // want "unknown //physched: directive \"frobnicate\""
func unknownVerb() {}

//physched:hotpath // want "unknown //physched: directive \"hotpath\""
func retiredVerb() {}

func missingReason(m map[string]int) []string {
	var keys []string
	//physched:orderinvariant // want "//physched:orderinvariant needs a reason"
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func misplacedOrderInvariant() {
	//physched:orderinvariant not a range statement below // want "misplaced //physched:orderinvariant"
	x := 1
	_ = x
}

//physched:walltime not inside a function body // want "misplaced //physched:walltime"
var start = time.Now()

func bareWalltime() time.Time {
	//physched:walltime // want "//physched:walltime needs a reason"
	return time.Now()
}

func validSuppressions(m map[string]int) (int, time.Time) {
	n := 0
	//physched:orderinvariant counting iterations is order-free
	for range m {
		n++
	}
	return n, time.Now() //physched:walltime the fixture's one wiring site
}
