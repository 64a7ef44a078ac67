// Package workload synthesises the paper's job stream (§2.4): jobs arrive
// as a Poisson process; each job reads a contiguous segment of the
// dataspace whose length is Erlang(4) distributed with mean 30 000 events;
// segment start points are uniform except for two hot regions covering 10%
// of the dataspace that attract 50% of the start points ("the fraction of
// the data associated with some very interesting events is accessed far
// more frequently than the remaining data").
package workload

import (
	"math"
	"math/rand"

	"physched/internal/dataspace"
	"physched/internal/freelist"
	"physched/internal/job"
	"physched/internal/model"
	"physched/internal/stats"
)

// arrivalProcess yields successive arrival times; the synthetic stream
// plugs in either a homogeneous Poisson process or a thinned
// inhomogeneous one.
type arrivalProcess interface {
	Next() float64
}

// Generator produces the synthetic job stream. Jobs are allocated from an
// internal arena (chunked, one allocation per job.arenaChunk jobs) that
// lives until Release.
type Generator struct {
	params  model.Params
	rng     *rand.Rand
	arrival arrivalProcess
	nextID  int64
	arena   job.Arena
	hot     []dataspace.Interval // hot start regions
	hotLen  int64
	coldLen int64
	ownRNG  bool // rng came from freelist.Rand and goes back on Release
}

// New returns a generator for the given parameters and arrival rate in
// jobs per hour, drawing randomness from rng.
func New(p model.Params, rng *rand.Rand, jobsPerHour float64) *Generator {
	return newGenerator(p, rng, stats.NewPoissonProcess(rng, jobsPerHour/model.Hour, 0))
}

// NewSeeded is New with a random source of its own, seeded with seed and
// recycled through Release.
func NewSeeded(p model.Params, seed int64, jobsPerHour float64) *Generator {
	g := New(p, freelist.Rand(seed), jobsPerHour)
	g.ownRNG = true
	return g
}

// RateFunc is an instantaneous arrival rate, in jobs per hour, as a
// function of simulated time in seconds.
type RateFunc func(t float64) float64

// NewInhomogeneous returns a generator whose arrivals follow an
// inhomogeneous Poisson process with rate rate(t), bounded by
// peakJobsPerHour, realised by Lewis–Shedler thinning. Job sizes and
// start points are drawn exactly as in New — only the arrival clock
// differs.
func NewInhomogeneous(p model.Params, rng *rand.Rand, rate RateFunc, peakJobsPerHour float64) *Generator {
	perSecond := func(t float64) float64 { return rate(t) / model.Hour }
	return newGenerator(p, rng, stats.NewThinnedPoisson(rng, perSecond, peakJobsPerHour/model.Hour, 0))
}

// DayNight returns the rate function of a 24-hour load cycle:
// mean·(1 + swing·sin(2πt/day)). swing in [0,1) scales the day/night
// contrast; the peak rate is mean·(1+swing).
func DayNight(meanJobsPerHour, swing float64) RateFunc {
	return func(t float64) float64 {
		return meanJobsPerHour * (1 + swing*math.Sin(2*math.Pi*t/model.Day))
	}
}

func newGenerator(p model.Params, rng *rand.Rand, arrival arrivalProcess) *Generator {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	g := &Generator{params: p, rng: rng, arrival: arrival}
	g.hot = HotRegions(p)
	for _, h := range g.hot {
		g.hotLen += h.Len()
	}
	g.coldLen = p.TotalEvents() - g.hotLen
	return g
}

// HotRegions returns the hot start-point regions for p: HotRegions equal
// slices of the dataspace, evenly spaced, together covering HotFraction of
// it. With the paper's parameters this yields two regions of 5% each.
func HotRegions(p model.Params) []dataspace.Interval {
	if p.HotFraction <= 0 || p.HotRegions <= 0 {
		return nil
	}
	total := p.TotalEvents()
	per := int64(float64(total) * p.HotFraction / float64(p.HotRegions))
	out := make([]dataspace.Interval, 0, p.HotRegions)
	for i := 0; i < p.HotRegions; i++ {
		// Region i centred at (i+1)/(regions+1) of the dataspace.
		center := total * int64(i+1) / int64(p.HotRegions+1)
		start := center - per/2
		out = append(out, dataspace.Iv(start, start+per))
	}
	return out
}

// Next returns the next job of the stream. Job IDs are sequential from 0.
func (g *Generator) Next() *job.Job {
	t := g.arrival.Next()
	j := g.arena.NewJob()
	j.ID = g.nextID
	j.Arrival = t
	j.Range = g.segment()
	j.ScheduledAt = t
	g.nextID++
	return j
}

// Release gives the generator's job storage, and a random source of its
// own, back for reuse by later runs. Every job it returned is invalid
// afterwards, so only the owner of the whole run may call it, once the
// run is over; the generator must not be used again.
func (g *Generator) Release() {
	g.arena.Release()
	if g.ownRNG {
		freelist.PutRand(g.rng)
		g.rng, g.ownRNG = nil, false
	}
}

// segment draws a job's event range: hot-biased start point, Erlang length,
// shifted back when it would overrun the dataspace end.
func (g *Generator) segment() dataspace.Interval {
	length := int64(stats.Erlang(g.rng, g.params.ErlangShape, float64(g.params.MeanJobEvents)))
	if length < g.params.MinSubjobEvents {
		length = g.params.MinSubjobEvents
	}
	total := g.params.TotalEvents()
	if length > total {
		length = total
	}
	start := g.startPoint()
	if start+length > total {
		start = total - length
	}
	return dataspace.Iv(start, start+length)
}

// startPoint draws a start index from the hot/cold mixture.
func (g *Generator) startPoint() int64 {
	if g.hotLen > 0 && g.rng.Float64() < g.params.HotWeight {
		// Uniform over the union of hot regions.
		off := g.rng.Int63n(g.hotLen)
		for _, h := range g.hot {
			if off < h.Len() {
				return h.Start + off
			}
			off -= h.Len()
		}
	}
	// Uniform over the cold part.
	off := g.rng.Int63n(g.coldLen)
	pos := int64(0)
	for _, h := range g.hot {
		gap := h.Start - pos
		if off < gap {
			return pos + off
		}
		off -= gap
		pos = h.End
	}
	return pos + off
}
