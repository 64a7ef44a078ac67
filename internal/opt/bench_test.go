package opt

import (
	"testing"
)

// BenchmarkStudyRandom prices one cold budgeted random search end to end
// — spec hashing, cache misses, grid execution and report assembly. CI
// snapshots it into BENCH_run.json next to the lab run benchmarks, so the
// search layer's overhead stays on the perf trajectory. One untimed study
// first fills the run storage that lab recycles, so allocs/op is the
// steady state and does not move with b.N.
func BenchmarkStudyRandom(b *testing.B) {
	st := searchStudy("random")
	st.Search.BudgetCells = 8
	st.Search.Replications = 2
	if _, err := Run(st, Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(st, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
