package job

import "physched/internal/dataspace"

// arenaChunk is the number of objects per arena chunk. Chunks are
// allocated with fixed capacity and only ever appended to, so the address
// of an object never changes once handed out.
const arenaChunk = 256

// Arena owns the Job and Subjob storage of a simulation run. Objects are
// allocated out of fixed-capacity chunks — one allocation per chunk
// instead of one per object — and are index-addressed: every Job and
// Subjob has a dense arena index (Subjob.ID; jobs are counted in
// allocation order), resolvable through JobAt/SubjobAt. Pointers handed
// out stay valid for the arena's lifetime; there is no intra-run
// recycling, so a stale handle can never observe an unrelated object.
//
// The zero Arena is ready for use.
type Arena struct {
	jobs [][]Job
	subs [][]Subjob
}

// NewJob allocates a zeroed Job. The caller assigns its fields (including
// the workload-assigned ID, which is independent of the arena index).
//
//physched:hotpath
func (a *Arena) NewJob() *Job {
	if n := len(a.jobs); n == 0 || len(a.jobs[n-1]) == cap(a.jobs[n-1]) {
		a.jobs = append(a.jobs, make([]Job, 0, arenaChunk))
	}
	ch := &a.jobs[len(a.jobs)-1]
	*ch = append(*ch, Job{})
	return &(*ch)[len(*ch)-1]
}

// NumJobs returns the number of jobs allocated.
func (a *Arena) NumJobs() int {
	if len(a.jobs) == 0 {
		return 0
	}
	return (len(a.jobs)-1)*arenaChunk + len(a.jobs[len(a.jobs)-1])
}

// JobAt returns the i-th allocated job.
//
//physched:hotpath
func (a *Arena) JobAt(i int) *Job { return &a.jobs[i/arenaChunk][i%arenaChunk] }

// NewSubjob allocates a subjob of j covering r, coming from origin's
// queue (-1 for the global no-cached-data queue). Flag fields start
// false; set them on the returned subjob.
//
//physched:hotpath
func (a *Arena) NewSubjob(j *Job, r dataspace.Interval, origin int) *Subjob {
	sj := a.allocSubjob()
	sj.Job = j
	sj.Range = r
	sj.Origin = origin
	return sj
}

// CloneSubjob allocates a subjob inheriting sj's job, flags and origin
// but covering r — the shape of every preemption/split/crash remainder.
//
//physched:hotpath
func (a *Arena) CloneSubjob(sj *Subjob, r dataspace.Interval) *Subjob {
	out := a.allocSubjob()
	out.Job = sj.Job
	out.Range = r
	out.Yielding = sj.Yielding
	out.NoCacheQueue = sj.NoCacheQueue
	out.Origin = sj.Origin
	return out
}

//physched:hotpath
func (a *Arena) allocSubjob() *Subjob {
	id := a.NumSubjobs()
	if n := len(a.subs); n == 0 || len(a.subs[n-1]) == cap(a.subs[n-1]) {
		a.subs = append(a.subs, make([]Subjob, 0, arenaChunk))
	}
	ch := &a.subs[len(a.subs)-1]
	*ch = append(*ch, Subjob{ID: int32(id)})
	return &(*ch)[len(*ch)-1]
}

// NumSubjobs returns the number of subjobs allocated.
func (a *Arena) NumSubjobs() int {
	if len(a.subs) == 0 {
		return 0
	}
	return (len(a.subs)-1)*arenaChunk + len(a.subs[len(a.subs)-1])
}

// SubjobAt returns the subjob with arena index i (== its ID).
func (a *Arena) SubjobAt(i int) *Subjob { return &a.subs[i/arenaChunk][i%arenaChunk] }
