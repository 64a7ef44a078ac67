// Package stats provides the random variates, summary statistics and
// histogram machinery used by the workload generator and the metrics
// collector: exponential and Erlang distributions (job inter-arrival times
// and event counts in the paper), streaming summaries, log-scale waiting
// time histograms and linear trend detection for overload analysis.
package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Exponential draws an exponential variate with the given mean.
func Exponential(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// Erlang draws an Erlang(shape, mean) variate: the sum of shape independent
// exponentials whose total mean is mean. The paper draws job event counts
// from Erlang with shape 4 and mean 30 000.
func Erlang(rng *rand.Rand, shape int, mean float64) float64 {
	if shape <= 0 {
		panic("stats: Erlang shape must be positive")
	}
	// Product of uniforms avoids shape calls to ExpFloat64.
	prod := 1.0
	for i := 0; i < shape; i++ {
		prod *= 1 - rng.Float64() // in (0,1]
	}
	return -math.Log(prod) * mean / float64(shape)
}

// PoissonProcess yields successive arrival times of a Poisson process with
// the given rate (events per unit time), starting after start.
type PoissonProcess struct {
	rng  *rand.Rand
	rate float64
	now  float64
}

// NewPoissonProcess returns a Poisson arrival process with the given rate,
// beginning at time start.
func NewPoissonProcess(rng *rand.Rand, rate, start float64) *PoissonProcess {
	if rate <= 0 {
		panic("stats: Poisson rate must be positive")
	}
	return &PoissonProcess{rng: rng, rate: rate, now: start}
}

// Next returns the next arrival time.
func (p *PoissonProcess) Next() float64 {
	p.now += Exponential(p.rng, 1/p.rate)
	return p.now
}

// ThinnedPoisson yields successive arrival times of an inhomogeneous
// Poisson process with time-varying rate r(t), using Lewis–Shedler
// thinning: candidate arrivals are drawn from a homogeneous process at the
// peak rate and accepted with probability r(t)/peak. The rate function
// must satisfy 0 ≤ r(t) ≤ peak; larger values are clamped, which distorts
// the process rather than failing.
type ThinnedPoisson struct {
	rng  *rand.Rand
	rate func(float64) float64
	peak float64
	now  float64
}

// NewThinnedPoisson returns an inhomogeneous Poisson arrival process with
// instantaneous rate rate(t) bounded by peak (events per unit time),
// beginning at time start.
func NewThinnedPoisson(rng *rand.Rand, rate func(float64) float64, peak, start float64) *ThinnedPoisson {
	if peak <= 0 {
		panic("stats: thinned Poisson peak rate must be positive")
	}
	if rate == nil {
		panic("stats: thinned Poisson needs a rate function")
	}
	return &ThinnedPoisson{rng: rng, rate: rate, peak: peak, now: start}
}

// Next returns the next accepted arrival time. A rate function that stays
// at zero would make thinning reject forever; after a large bounded number
// of consecutive rejections Next panics instead of hanging — a stream
// that genuinely ends should be modelled as a finite workload source, not
// as a rate that drops to zero.
func (p *ThinnedPoisson) Next() float64 {
	const maxRejections = 1 << 22
	for i := 0; i < maxRejections; i++ {
		p.now += Exponential(p.rng, 1/p.peak)
		if p.rng.Float64()*p.peak <= p.rate(p.now) {
			return p.now
		}
	}
	panic(fmt.Sprintf("stats: thinned Poisson rejected %d consecutive candidates (rate stuck near zero around t=%g)", maxRejections, p.now))
}
