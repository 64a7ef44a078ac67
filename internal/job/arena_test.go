package job

import (
	"reflect"
	"testing"

	"physched/internal/dataspace"
)

// TestArenaHandlesSurviveChurn drives the arena through the allocation
// pattern of a long fault-injected run — a subjob is "killed", its
// remainder cloned and requeued, over and over — and asserts the handle
// contract: every pointer handed out stays valid for the arena's
// lifetime, and every subjob's dense ID keeps resolving to the same
// object through SubjobAt no matter how many chunks are appended later.
func TestArenaHandlesSurviveChurn(t *testing.T) {
	var a Arena
	j := a.NewJob()
	j.ID = 7
	j.Range = dataspace.Iv(0, 1_000_000)

	const cycles = 2_000 // crosses many arenaChunk boundaries
	handles := make([]*Subjob, 0, cycles+1)
	ranges := make([]dataspace.Interval, 0, cycles+1)

	running := a.NewSubjob(j, j.Range, -1)
	running.NoCacheQueue = true
	handles = append(handles, running)
	ranges = append(ranges, running.Range)
	for i := 0; i < cycles; i++ {
		// Node crash: the killed subjob's unprocessed remainder goes back
		// to the front of the queue it came from, as a clone.
		rem := a.CloneSubjob(running, dataspace.Iv(running.Range.Start+100, running.Range.End))
		if !rem.NoCacheQueue || rem.Origin != running.Origin {
			t.Fatalf("cycle %d: clone lost flags: %+v", i, rem)
		}
		handles = append(handles, rem)
		ranges = append(ranges, rem.Range)
		running = rem
	}

	if got := a.NumSubjobs(); got != cycles+1 {
		t.Fatalf("NumSubjobs = %d, want %d", got, cycles+1)
	}
	for i, h := range handles {
		if h.ID != int32(i) {
			t.Fatalf("handle %d has ID %d: IDs must be dense in allocation order", i, h.ID)
		}
		if a.SubjobAt(i) != h {
			t.Fatalf("SubjobAt(%d) moved: arena objects must be address-stable", i)
		}
		if h.Range != ranges[i] || h.Job != j {
			t.Fatalf("subjob %d data corrupted: %+v", i, h)
		}
	}
}

// TestArenaJobsAddressStable allocates jobs across several chunks and
// asserts pointer identity through JobAt.
func TestArenaJobsAddressStable(t *testing.T) {
	var a Arena
	const n = 3*arenaChunk + 5
	handles := make([]*Job, 0, n)
	for i := 0; i < n; i++ {
		j := a.NewJob()
		j.ID = int64(i)
		handles = append(handles, j)
	}
	if a.NumJobs() != n {
		t.Fatalf("NumJobs = %d, want %d", a.NumJobs(), n)
	}
	for i, h := range handles {
		if a.JobAt(i) != h || h.ID != int64(i) {
			t.Fatalf("JobAt(%d) = %p (ID %d), want %p (ID %d)", i, a.JobAt(i), a.JobAt(i).ID, h, i)
		}
	}
}

// TestJobAtDoesNotAllocate pins the arena lookup at zero allocations.
// No gated benchmark calls JobAt, so this is its only allocation check.
func TestJobAtDoesNotAllocate(t *testing.T) {
	var a Arena
	for i := 0; i < 3*arenaChunk; i++ {
		a.NewJob()
	}
	var sink *Job
	if n := testing.AllocsPerRun(1000, func() { sink = a.JobAt(2*arenaChunk + 1) }); n != 0 {
		t.Errorf("JobAt allocates %.1f per call, want 0", n)
	}
	_ = sink
}

// TestArenaReleaseRecycles: a released arena's chunks serve the next
// arena, cleared, so a recycled object starts exactly like a fresh one,
// and a fill-and-release cycle allocates nothing once chunks exist.
func TestArenaReleaseRecycles(t *testing.T) {
	var a Arena
	var lastJob *Job
	var lastSub *Subjob
	for i := 0; i < 2*arenaChunk+3; i++ {
		lastJob = a.NewJob()
		lastJob.ID = int64(i)
		lastJob.Finished = true
		lastJob.Suspended = []*Subjob{{}}
		lastSub = a.NewSubjob(lastJob, dataspace.Iv(0, 10), 2)
		lastSub.Yielding = true
	}
	a.Release()
	if a.NumJobs() != 0 || a.NumSubjobs() != 0 {
		t.Fatal("a released arena still counts objects")
	}

	var b Arena
	for i := 0; i < 2*arenaChunk+3; i++ {
		j := b.NewJob()
		if !reflect.DeepEqual(*j, Job{}) {
			t.Fatalf("recycled job %d not cleared: %+v", i, *j)
		}
		sj := b.NewSubjob(j, dataspace.Iv(5, 6), -1)
		if want := (Subjob{Job: j, Range: dataspace.Iv(5, 6), ID: int32(i), Origin: -1}); *sj != want {
			t.Fatalf("recycled subjob %d = %+v, want %+v", i, *sj, want)
		}
	}
	if b.JobAt(2*arenaChunk+2) != lastJob || b.SubjobAt(2*arenaChunk+2) != lastSub {
		t.Error("the second arena did not reuse the released chunks")
	}
	b.Release()

	allocs := testing.AllocsPerRun(20, func() {
		var c Arena
		for i := 0; i < 3*arenaChunk; i++ {
			c.NewSubjob(c.NewJob(), dataspace.Iv(0, 1), -1)
		}
		c.Release()
	})
	if allocs != 0 {
		t.Errorf("a fill-and-release cycle allocates %.1f times, want 0", allocs)
	}
}
