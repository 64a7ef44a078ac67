// Package queueing provides the analytic queueing-theory reference the
// paper invokes for the processing-farm baseline (§3.1: "A mathematical
// model can be established which describes the cluster behavior as a
// special case of a M/Er/m queuing system").
//
// Poisson arrivals, Erlang-k service and m identical servers have no simple
// closed form, so the standard practice is followed: the exact Erlang-C
// M/M/m waiting time scaled by the Allen–Cunneen correction (1+CV²)/2,
// which is exact for M/M/m and highly accurate for Erlang service at the
// utilisations the paper studies. Integration tests validate the farm
// simulator against this model.
package queueing

import (
	"errors"
	"math"
)

// MErM describes an M/Er/m queue.
type MErM struct {
	// Lambda is the arrival rate (jobs per second).
	Lambda float64
	// MeanService is the mean service time (seconds).
	MeanService float64
	// Shape is the Erlang shape of the service distribution.
	Shape int
	// Servers is the number of identical servers.
	Servers int
}

// ErrUnstable is returned when utilisation is at or above one.
var ErrUnstable = errors.New("queueing: utilisation >= 1, queue is unstable")

// Utilisation returns λ·E[S]/m.
func (q MErM) Utilisation() float64 {
	return q.Lambda * q.MeanService / float64(q.Servers)
}

// ErlangC returns the probability that an arriving job must wait in an
// M/M/m queue with offered load a = λ·E[S] and m servers.
func ErlangC(a float64, m int) float64 {
	// Compute iteratively to avoid factorial overflow: B(0)=1,
	// B(k) = a·B(k-1)/(k + a·B(k-1)) is the Erlang-B recursion; then
	// C = m·B/(m - a(1-B)).
	b := 1.0
	for k := 1; k <= m; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(m)
	return b / (1 - rho + rho*b)
}

// MeanWait returns the expected waiting time in queue, in seconds.
func (q MErM) MeanWait() (float64, error) {
	if err := q.validate(); err != nil {
		return 0, err
	}
	rho := q.Utilisation()
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	a := q.Lambda * q.MeanService
	c := ErlangC(a, q.Servers)
	wqMM := c * q.MeanService / (float64(q.Servers) * (1 - rho))
	cv2 := 1 / float64(q.Shape)
	return wqMM * (1 + cv2) / 2, nil
}

// PollaczekKhinchine returns the exact M/G/1 mean waiting time for the
// queue's Erlang service distribution: Wq = λ·E[S²]/(2(1−ρ)). It applies
// only to single-server queues and is used to validate the Allen–Cunneen
// correction, which coincides with it at m = 1.
func (q MErM) PollaczekKhinchine() (float64, error) {
	if err := q.validate(); err != nil {
		return 0, err
	}
	if q.Servers != 1 {
		return 0, errors.New("queueing: Pollaczek–Khinchine applies to one server")
	}
	rho := q.Lambda * q.MeanService
	if rho >= 1 {
		return math.Inf(1), ErrUnstable
	}
	// Erlang-k: E[S²] = (1 + 1/k)·E[S]².
	es2 := (1 + 1/float64(q.Shape)) * q.MeanService * q.MeanService
	return q.Lambda * es2 / (2 * (1 - rho)), nil
}

func (q MErM) validate() error {
	switch {
	case q.Lambda <= 0:
		return errors.New("queueing: Lambda must be positive")
	case q.MeanService <= 0:
		return errors.New("queueing: MeanService must be positive")
	case q.Shape <= 0:
		return errors.New("queueing: Shape must be positive")
	case q.Servers <= 0:
		return errors.New("queueing: Servers must be positive")
	}
	return nil
}
