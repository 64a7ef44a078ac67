package job

import (
	"physched/internal/dataspace"
	"physched/internal/freelist"
)

// arenaChunk is the number of objects per arena chunk. Chunks are
// allocated with fixed capacity and only ever appended to, so the address
// of an object never changes once handed out.
const arenaChunk = 256

// Arena owns the Job and Subjob storage of a simulation run. Objects are
// allocated out of fixed-capacity chunks — one allocation per chunk
// instead of one per object — and are index-addressed: every Job and
// Subjob has a dense arena index (Subjob.ID; jobs are counted in
// allocation order), resolvable through JobAt/SubjobAt. Pointers handed
// out stay valid until Release; there is no intra-run recycling, so a
// stale handle can never observe an unrelated object.
//
// Release gives the chunks back to package-level free lists when the run
// ends, and the next arena to need a chunk takes a whole recycled chunk
// set from them. A chunk set goes back cleared, and every object is
// written in full when it is handed out, so a recycled arena behaves
// exactly like a fresh one.
//
// The zero Arena is ready for use.
type Arena struct {
	jobs [][]Job // chunks in use; recycled spare chunks park past len
	subs [][]Subjob
}

// Recycled chunk sets, one per released arena that used the kind.
var (
	freeJobs freelist.List[[][]Job]
	freeSubs freelist.List[[][]Subjob]
)

// NewJob allocates a zeroed Job. The caller assigns its fields (including
// the workload-assigned ID, which is independent of the arena index).
func (a *Arena) NewJob() *Job {
	if n := len(a.jobs); n == 0 || len(a.jobs[n-1]) == cap(a.jobs[n-1]) {
		a.jobs = nextChunk(a.jobs, &freeJobs)
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
func (a *Arena) JobAt(i int) *Job { return &a.jobs[i/arenaChunk][i%arenaChunk] }

// NewSubjob allocates a subjob of j covering r, coming from origin's
// queue (-1 for the global no-cached-data queue). Flag fields start
// false; set them on the returned subjob.
func (a *Arena) NewSubjob(j *Job, r dataspace.Interval, origin int) *Subjob {
	sj := a.allocSubjob()
	sj.Job = j
	sj.Range = r
	sj.Origin = origin
	return sj
}

// CloneSubjob allocates a subjob inheriting sj's job, flags and origin
// but covering r — the shape of every preemption/split/crash remainder.
func (a *Arena) CloneSubjob(sj *Subjob, r dataspace.Interval) *Subjob {
	out := a.allocSubjob()
	out.Job = sj.Job
	out.Range = r
	out.Yielding = sj.Yielding
	out.NoCacheQueue = sj.NoCacheQueue
	out.Origin = sj.Origin
	return out
}

func (a *Arena) allocSubjob() *Subjob {
	id := a.NumSubjobs()
	if n := len(a.subs); n == 0 || len(a.subs[n-1]) == cap(a.subs[n-1]) {
		a.subs = nextChunk(a.subs, &freeSubs)
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

// Release empties the arena and gives its chunks back for later arenas.
// Every Job and Subjob it handed out is invalid afterwards: the caller
// must hold no reference that will be read again.
func (a *Arena) Release() {
	if a.jobs != nil {
		freeJobs.Put(clearChunks(a.jobs))
	}
	if a.subs != nil {
		freeSubs.Put(clearChunks(a.subs))
	}
	a.jobs, a.subs = nil, nil
}

// nextChunk appends an empty chunk to chunks: a spare parked past its
// length if there is one, else a fresh chunk. An arena's first chunk
// request adopts a recycled chunk set, if one is free.
func nextChunk[T any](chunks [][]T, free *freelist.List[[][]T]) [][]T {
	if chunks == nil {
		chunks, _ = free.Get()
	}
	if n := len(chunks); n < cap(chunks) && cap(chunks[:n+1][n]) > 0 {
		return chunks[:n+1]
	}
	return append(chunks, make([]T, 0, arenaChunk))
}

// clearChunks zeroes every used chunk, so no recycled object keeps
// pointers into a finished run, and parks all chunks as spares.
func clearChunks[T any](chunks [][]T) [][]T {
	for i, ch := range chunks {
		clear(ch)
		chunks[i] = ch[:0]
	}
	return chunks[:0]
}
