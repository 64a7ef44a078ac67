// Package job defines the unit of work of the simulated system: analysis
// jobs over contiguous event ranges, the subjobs policies split them into,
// and splitting helpers shared by all scheduling policies.
//
// A job is "a large collection of events" (paper §2.4); policies divide it
// into subjobs processing disjoint sub-ranges, possibly suspending and
// resuming them. Subjobs of one job together always partition exactly the
// unprocessed remainder of the job's range.
package job

import (
	"fmt"
	"slices"

	"physched/internal/dataspace"
)

// Job is one analysis job submitted by a physicist.
type Job struct {
	ID      int64
	Arrival float64            // submission time
	Range   dataspace.Interval // contiguous events to analyse

	// Accounting maintained by the cluster.
	Processed  int64   // events fully analysed so far
	Started    bool    // true once the first subjob was dispatched
	FirstStart float64 // time of first dispatch
	Finished   bool
	EndTime    float64

	// ScheduledAt is the time the job was handed to its policy's queues.
	// For immediate policies it equals Arrival; delayed scheduling sets it
	// to the end of the accumulation period, and reported waiting times
	// start there (§5.2: the period delay "is subtracted from the waiting
	// time shown in the figures").
	ScheduledAt float64

	// Running counts subjobs of this job currently executing on nodes.
	Running int

	// Suspended holds subjobs of this job that were preempted or could not
	// be placed, and await resumption. Owned by the scheduling policy.
	Suspended []*Subjob

	// Priority marks a job that exceeded the fairness aging limit of the
	// out-of-order policy (§4.1) and must be served before any other work.
	Priority bool
}

// Remaining returns the number of events still to process.
func (j *Job) Remaining() int64 { return j.Range.Len() - j.Processed }

// Events returns the total number of events of the job.
func (j *Job) Events() int64 { return j.Range.Len() }

func (j *Job) String() string {
	return fmt.Sprintf("job%d%v", j.ID, j.Range)
}

// Subjob is a contiguous slice of a job assigned to one node at a time.
type Subjob struct {
	Job   *Job
	Range dataspace.Interval

	// ID is the subjob's dense arena index (see Arena), usable to address
	// it without holding the pointer. Subjobs built as plain literals
	// (tests) have ID 0.
	ID int32

	// Yielding marks a subjob that runs on a node not holding its data
	// (out-of-order work stealing, Table 3): a subjob with locally cached
	// data may preempt it.
	Yielding bool

	// NoCacheQueue remembers that the subjob came from the global
	// no-cached-data queue, so preemption puts it back at that queue's
	// front (Table 3).
	NoCacheQueue bool

	// Origin is the node whose queue the subjob came from, or -1 for the
	// no-cached-data queue. Preemption returns the remainder "at the first
	// position of the queue where it came from" (Table 3).
	Origin int
}

// Events returns the subjob's event count.
func (s *Subjob) Events() int64 { return s.Range.Len() }

func (s *Subjob) String() string {
	return fmt.Sprintf("sub[j%d]%v", s.Job.ID, s.Range)
}

// AppendSplitEqual cuts iv into at most n contiguous parts of
// (near-)equal size, none smaller than minEvents (except when iv itself is
// smaller, which yields a single part), and appends them to dst. It
// yields fewer than n parts when iv is too small to honour minEvents.
// Per-dispatch paths pass a reused buffer and split without allocating.
func AppendSplitEqual(dst []dataspace.Interval, iv dataspace.Interval, n int, minEvents int64) []dataspace.Interval {
	if iv.Empty() || n <= 0 {
		return dst
	}
	if maxParts := iv.Len() / minEvents; int64(n) > maxParts {
		n = int(maxParts)
		if n == 0 {
			n = 1
		}
	}
	size := iv.Len() / int64(n)
	rem := iv.Len() % int64(n)
	pos := iv.Start
	for i := 0; i < n; i++ {
		end := pos + size
		if int64(i) < rem {
			end++
		}
		dst = append(dst, dataspace.Iv(pos, end))
		pos = end
	}
	return dst
}

// SplitForJob turns intervals into subjobs of j.
func SplitForJob(j *Job, ivs []dataspace.Interval) []*Subjob {
	subs := make([]*Subjob, len(ivs))
	for i, iv := range ivs {
		subs[i] = &Subjob{Job: j, Range: iv}
	}
	return subs
}

// AppendStripePoints computes the cut points of the delayed policy
// (Table 4) and appends them to dst: starting from the sorted distinct
// boundary points of the given intervals within hull, points creating
// stripes shorter than stripe/2 are removed, then points are added so that
// no stripe exceeds stripe events. scratch is an intermediate buffer; the
// extended dst and the (possibly regrown) scratch are returned so the
// caller can reuse both across periods.
func AppendStripePoints(dst, scratch []int64, boundaries []int64, hull dataspace.Interval, stripe int64) ([]int64, []int64) {
	if stripe <= 0 {
		panic("job: stripe must be positive")
	}
	// Sorted distinct boundary points inside the hull, hull ends included.
	pts := append(scratch[:0], hull.Start, hull.End)
	for _, b := range boundaries {
		if b > hull.Start && b < hull.End {
			pts = append(pts, b)
		}
	}
	slices.Sort(pts)
	pts = slices.Compact(pts)
	// Drop points creating stripes below stripe/2 (keep hull ends).
	w := 1
	for i := 1; i < len(pts); i++ {
		p := pts[i]
		if p-pts[w-1] < stripe/2 && p != hull.End {
			continue
		}
		pts[w] = p
		w++
	}
	pts = pts[:w]
	// Ensure no stripe exceeds stripe events.
	for i, p := range pts {
		if i > 0 {
			prev := dst[len(dst)-1]
			for p-prev > stripe {
				prev += stripe
				dst = append(dst, prev)
			}
		}
		dst = append(dst, p)
	}
	return dst, pts
}

// AppendCutAtPoints splits iv at the given ascending cut points and
// appends the resulting contiguous sub-intervals to dst.
func AppendCutAtPoints(dst []dataspace.Interval, iv dataspace.Interval, points []int64) []dataspace.Interval {
	pos := iv.Start
	for _, p := range points {
		if p <= pos {
			continue
		}
		if p >= iv.End {
			break
		}
		dst = append(dst, dataspace.Iv(pos, p))
		pos = p
	}
	if pos < iv.End {
		dst = append(dst, dataspace.Iv(pos, iv.End))
	}
	return dst
}
