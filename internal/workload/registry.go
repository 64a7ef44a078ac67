package workload

import (
	"fmt"
	"sort"
	"sync"

	"physched/internal/freelist"
	"physched/internal/model"
)

// Args carries the serialisable inputs a registered workload factory may
// consume. Params, Seed and JobsPerHour are bound per run by the lab (the
// grid sweeps them); the remaining fields are spec-level knobs of the
// individual workload kinds.
type Args struct {
	Params      model.Params
	Seed        int64
	JobsPerHour float64

	// Swing is the day/night load contrast in [0,1) for the "daynight"
	// kind: the instantaneous rate is JobsPerHour·(1 + Swing·sin(2πt/day)).
	Swing float64
	// PeakJobsPerHour bounds the thinning envelope of inhomogeneous kinds;
	// zero means the kind's natural peak (daynight: JobsPerHour·(1+Swing)).
	PeakJobsPerHour float64
}

// Factory builds a fresh workload source from its serialisable arguments.
// Sources are stateful, so a factory is invoked once per simulation run.
type Factory func(Args) (Source, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register makes a workload kind constructible by name through Resolve,
// extending the set of job streams reachable from spec files and the
// physchedd service without touching this package. It rejects empty names
// and names already taken (including the built-ins).
func Register(name string, f Factory) error {
	if name == "" {
		return fmt.Errorf("workload: Register with empty workload name")
	}
	if f == nil {
		return fmt.Errorf("workload: Register %q with nil factory", name)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		return fmt.Errorf("workload: kind %q already registered", name)
	}
	registry[name] = f
	return nil
}

// Resolve builds the named workload kind with the given arguments. The
// empty name resolves to "poisson", the paper's homogeneous stream.
func Resolve(name string, a Args) (Source, error) {
	if name == "" {
		name = "poisson"
	}
	registryMu.RLock()
	f, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("workload: unknown kind %q (known: %v)", name, Names())
	}
	return f(a)
}

// Names lists the registered workload kinds, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(Register("poisson", func(a Args) (Source, error) {
		if a.JobsPerHour <= 0 {
			return nil, fmt.Errorf("workload: poisson needs a positive rate, got %v jobs/h", a.JobsPerHour)
		}
		// Arguments the kind does not consume must fail as loudly as
		// misspelled field names: a spec with a dead swing would silently
		// simulate a homogeneous stream.
		if a.Swing != 0 {
			return nil, fmt.Errorf("workload: poisson does not take swing")
		}
		if a.PeakJobsPerHour != 0 {
			return nil, fmt.Errorf("workload: poisson does not take peak_jobs_per_hour")
		}
		return NewSeeded(a.Params, a.Seed, a.JobsPerHour), nil
	}))
	must(Register("daynight", func(a Args) (Source, error) {
		if a.JobsPerHour <= 0 {
			return nil, fmt.Errorf("workload: daynight needs a positive mean rate, got %v jobs/h", a.JobsPerHour)
		}
		if a.Swing < 0 || a.Swing >= 1 {
			return nil, fmt.Errorf("workload: daynight swing %v out of [0,1)", a.Swing)
		}
		peak := a.PeakJobsPerHour
		if peak == 0 {
			peak = a.JobsPerHour * (1 + a.Swing)
		}
		if peak < a.JobsPerHour*(1+a.Swing) {
			return nil, fmt.Errorf("workload: daynight peak %v below the cycle's own peak %v",
				peak, a.JobsPerHour*(1+a.Swing))
		}
		rate := DayNight(a.JobsPerHour, a.Swing)
		g := NewInhomogeneous(a.Params, freelist.Rand(a.Seed), rate, peak)
		g.ownRNG = true
		return g, nil
	}))
}
