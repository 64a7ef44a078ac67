package lab

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"physched/internal/cluster"
	"physched/internal/job"
	"physched/internal/sched"
	"physched/internal/workload"
)

// recycleCells is one small cell per registered policy, fault-free and
// under churn with cache loss.
func recycleCells(t *testing.T) []Scenario {
	churn := cluster.FaultModel{MTBFHours: 24, RepairHours: 2, CacheLoss: true}
	var cells []Scenario
	for _, name := range sched.Names() {
		mk := func() sched.Policy {
			p, err := sched.New(name, sched.Args{})
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		for _, faults := range []cluster.FaultModel{{}, churn} {
			s := policyScenario(mk, 0.6*smallParams().FarmMaxLoad())
			s.WarmupJobs, s.MeasureJobs = 30, 120
			s.Faults = faults
			cells = append(cells, s)
		}
	}
	return cells
}

// runOrder runs cells in the given order, on one goroutine or through a
// grid on workers workers, and returns each cell's result JSON indexed
// like cells.
func runOrder(t *testing.T, cells []Scenario, order []int, workers int) []string {
	out := make([]string, len(cells))
	if workers == 1 {
		for _, i := range order {
			out[i] = string(marshal(t, Run(cells[i])))
		}
		return out
	}
	// One variant per cell: Mutate replaces the whole scenario, so the
	// grid runs exactly the listed cells, in the listed order.
	g := Grid{Base: cells[0]}
	for _, i := range order {
		s := cells[i]
		g.Variants = append(g.Variants, Variant{Mutate: func(c *Scenario) { *c = s }})
	}
	rs, err := g.Execute(Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for k, i := range order {
		out[i] = string(marshal(t, rs.Results[k]))
	}
	return out
}

// TestRecycledStorageIsolatesRuns: runs reuse each other's job arenas,
// cache storage and random sources (see RunE), so a cell's result must
// not depend on which cells ran before it or beside it. Every policy,
// with and without churn, runs forward and in reverse, serially and on
// four workers; every result must be byte-identical across all four.
//
// It is also the module's determinism battery for map order and the
// global math/rand source. Go randomises map iteration on every range and
// seeds the global source once per process, so a result that depends on
// either differs between the four runs of its cell. It sees such bugs
// only on the paths its cells execute; TestSourceDeterminism at the
// module root bans the global source and the wall clock on every path.
func TestRecycledStorageIsolatesRuns(t *testing.T) {
	cells := recycleCells(t)
	forward := make([]int, len(cells))
	for i := range forward {
		forward[i] = i
	}
	reverse := slices.Clone(forward)
	slices.Reverse(reverse)

	want := runOrder(t, cells, forward, 1)
	for _, tc := range []struct {
		name    string
		order   []int
		workers int
	}{
		{"reverse serial", reverse, 1},
		{"forward 4 workers", forward, 4},
		{"reverse 4 workers", reverse, 4},
	} {
		got := runOrder(t, cells, tc.order, tc.workers)
		for i := range cells {
			if got[i] != want[i] {
				t.Errorf("%s: cell %d (%s) differs from the forward serial run:\n%s\n%s",
					tc.name, i, cells[i].NewPolicy().Name(), got[i], want[i])
			}
		}
	}
}

// recordingSource hands out its source's jobs and keeps them, as a
// caller that owns the workload may.
type recordingSource struct {
	src  workload.Source
	jobs []*job.Job
}

func (r *recordingSource) Next() *job.Job {
	j := r.src.Next()
	if j != nil {
		r.jobs = append(r.jobs, j)
	}
	return j
}

// describeJobs renders every field of the jobs and of the subjobs they
// list as suspended.
func describeJobs(jobs []*job.Job) string {
	var b strings.Builder
	for _, j := range jobs {
		c := *j
		c.Suspended = nil
		fmt.Fprintf(&b, "%+v", c)
		for _, sj := range j.Suspended {
			fmt.Fprintf(&b, " [job %d %+v id %d yield %v nocache %v origin %d]",
				sj.Job.ID, sj.Range, sj.ID, sj.Yielding, sj.NoCacheQueue, sj.Origin)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRecycledStorageSparesCallerJobs: the jobs of a caller-owned
// Workload, and the subjobs they list, are never recycled. A replay runs,
// the recycling cells run, and the same trace replays again: the first
// replay's jobs are as the run left them, and both replays agree.
func TestRecycledStorageSparesCallerJobs(t *testing.T) {
	p := smallParams()
	load := 0.6 * p.FarmMaxLoad()
	var trace bytes.Buffer
	if err := workload.Export(&trace, workload.New(p, rand.New(rand.NewSource(11)), load), 200); err != nil {
		t.Fatal(err)
	}
	replay := func() (*recordingSource, Result) {
		rep, err := workload.NewReplay(bytes.NewReader(trace.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		src := &recordingSource{src: rep}
		// Cache-oriented scheduling suspends subjobs on their jobs.
		s := policyScenario(func() sched.Policy { return sched.NewCacheOriented() }, load)
		s.WarmupJobs, s.MeasureJobs = 30, 150
		s.Workload = src
		return src, Run(s)
	}

	first, res1 := replay()
	after := describeJobs(first.jobs)
	if !strings.Contains(after, "Finished:true") {
		t.Fatal("the replay finished no job")
	}
	for _, s := range recycleCells(t) {
		Run(s)
	}
	if got := describeJobs(first.jobs); got != after {
		t.Errorf("later runs changed the caller's jobs:\nbefore\n%s\nafter\n%s", after, got)
	}
	second, res2 := replay()
	if a, b := string(marshal(t, res1)), string(marshal(t, res2)); a != b {
		t.Errorf("replays of one trace differ:\n%s\n%s", a, b)
	}
	if got := describeJobs(second.jobs); got != after {
		t.Errorf("the second replay left its jobs in another state than the first:\n%s\n%s", got, after)
	}
}
