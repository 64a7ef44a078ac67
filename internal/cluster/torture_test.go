package cluster

import (
	"math/rand"
	"testing"

	"physched/internal/dataspace"
	"physched/internal/job"
	"physched/internal/model"
	"physched/internal/sim"
)

// TestTortureRandomOperations drives the cluster with random policy-like
// behaviour — dispatches, preemptions, in-place splits, bursts of idle and
// busy time — and asserts the conservation invariants every scheduling
// policy relies on:
//
//   - every job finishes with Processed == Events, exactly once
//   - a node never runs two subjobs
//   - remainder subjobs never overlap processed prefixes
//   - cache occupancy never exceeds capacity
//   - tape stream accounting stays balanced
//   - RemainingEvents equals the sum over the unfinished pieces
func TestTortureRandomOperations(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Caching: true},
		{Caching: true, RemoteReads: true},
		{Caching: true, RemoteReads: true, ReplicateAfter: 2},
	} {
		cfg := cfg
		t.Run(cfg.String(), func(t *testing.T) {
			tortureRun(t, cfg)
		})
	}
}

// String gives sub-test names for configs.
func (c Config) String() string {
	s := "plain"
	if c.Caching {
		s = "caching"
	}
	if c.RemoteReads {
		s += "+remote"
	}
	if c.ReplicateAfter > 0 {
		s += "+replication"
	}
	return s
}

func tortureRun(t *testing.T, cfg Config) {
	p := model.PaperCalibrated()
	p.Nodes = 4
	p.MeanJobEvents = 500
	p.DataspaceBytes = 30 * model.GB // 50k events
	p.CacheBytes = 3 * model.GB      // 5k events per node
	eng := sim.New()
	c := New(eng, p, cfg)

	rng := rand.New(rand.NewSource(42))
	finished := map[int64]int{}
	c.JobDone = func(j *job.Job) {
		finished[j.ID]++
		if j.Processed != j.Events() {
			t.Fatalf("job %d finished with %d of %d events", j.ID, j.Processed, j.Events())
		}
	}

	// pending holds subjobs awaiting a node (the "policy queue").
	var pending []*job.Subjob
	var all []*job.Job
	nextID := int64(0)

	c.SubjobDone = func(n *Node, sj *job.Subjob) {
		// Randomly dispatch pending work to the freed node.
		if len(pending) > 0 && rng.Intn(4) > 0 {
			i := rng.Intn(len(pending))
			sub := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			c.Dispatch(n, sub)
		}
	}

	newJob := func() {
		start := rng.Int63n(45_000)
		events := 50 + rng.Int63n(2_000)
		j := &job.Job{ID: nextID, Arrival: eng.Now(), ScheduledAt: eng.Now(),
			Range: dataspace.Iv(start, start+events)}
		nextID++
		all = append(all, j)
		// Split into 1-3 subjobs.
		parts := job.AppendSplitEqual(nil, j.Range, 1+rng.Intn(3), 10)
		for _, sub := range job.SplitForJob(j, parts) {
			pending = append(pending, sub)
		}
	}

	step := func() {
		switch rng.Intn(10) {
		case 0, 1, 2:
			newJob()
		case 3, 4, 5, 6:
			// Dispatch pending work to idle nodes.
			for _, n := range c.AppendIdle(nil) {
				if len(pending) == 0 {
					break
				}
				sub := pending[0]
				pending = pending[1:]
				c.Dispatch(n, sub)
			}
		case 7:
			// Preempt a random busy node.
			busy := busyNodes(c)
			if len(busy) > 0 {
				n := busy[rng.Intn(len(busy))]
				if rem := c.Preempt(n); rem != nil {
					pending = append(pending, rem)
				}
			}
		case 8:
			// Split a random running subjob.
			busy := busyNodes(c)
			if len(busy) > 0 {
				n := busy[rng.Intn(len(busy))]
				if tail := c.SplitRunning(n, c.RemainingEvents(n)/2, 10); tail != nil {
					pending = append(pending, tail)
				}
			}
		case 9:
			// Let time pass.
			eng.RunUntil(eng.Now() + rng.Float64()*500)
		}
		// Invariants checked on every step.
		for _, n := range c.Nodes() {
			if n.Cache.Used() > n.Cache.Capacity() {
				t.Fatal("cache over capacity")
			}
			if got, want := c.RemainingEvents(n), pieceSumRemaining(c, n); got != want {
				t.Fatalf("node %d: RemainingEvents = %d, piece sum = %d", n.ID, got, want)
			}
		}
	}

	for i := 0; i < 3_000; i++ {
		step()
	}
	// Drain: dispatch everything and run to completion.
	for len(pending) > 0 || anyBusy(c) {
		for _, n := range c.AppendIdle(nil) {
			if len(pending) == 0 {
				break
			}
			sub := pending[0]
			pending = pending[1:]
			c.Dispatch(n, sub)
		}
		if !eng.Step() && len(pending) > 0 && c.IdleCount() == 0 {
			t.Fatal("deadlock: pending work but no events and no idle nodes")
		}
	}

	for _, j := range all {
		if !j.Finished {
			t.Fatalf("job %d never finished (processed %d/%d)", j.ID, j.Processed, j.Events())
		}
		if finished[j.ID] != 1 {
			t.Fatalf("job %d finished %d times", j.ID, finished[j.ID])
		}
	}
	if len(all) < 100 {
		t.Fatalf("torture generated only %d jobs; raise step count", len(all))
	}
}

func busyNodes(c *Cluster) []*Node {
	var out []*Node
	for _, n := range c.Nodes() {
		if !n.Idle() {
			out = append(out, n)
		}
	}
	return out
}

func anyBusy(c *Cluster) bool { return len(busyNodes(c)) > 0 }

// pieceSumRemaining is the reference RemainingEvents: it sums the
// lengths of the running subjob's unfinished pieces and takes off the
// events the current piece has processed so far.
func pieceSumRemaining(c *Cluster, n *Node) int64 {
	r := n.run
	if r == nil {
		return 0
	}
	var rem int64
	for i := r.pieceIdx; i < len(r.pieces); i++ {
		rem += r.pieces[i].Range.Len()
	}
	p := r.pieces[r.pieceIdx]
	k := int64((c.eng.Now()-r.pieceStart)/p.PerEvent + 1e-9)
	return rem - min(k, p.Range.Len())
}
