package sched

import (
	"fmt"

	"physched/internal/model"
)

// Args carries the serialisable parameters a built-in policy may take.
// Every field is optional; each policy applies its own defaults, so the
// zero Args is valid for every built-in policy. Args is deliberately a
// closed set of plain values: it is the part of a policy specification
// that travels through JSON spec files, content hashes and the physchedd
// wire protocol.
type Args struct {
	// DelayHours is the delayed policy's accumulation period, in hours.
	DelayHours float64
	// StripeEvents is the stripe size for the delayed/adaptive policies.
	StripeEvents int64
	// MaxWaitHours overrides the out-of-order aging limit (default 48 h).
	MaxWaitHours float64
}

// builtin is one policy reachable by name: which Args it takes, and how to
// build a fresh instance from Args that check accepted. Policies are
// stateful, so build runs once per simulation run.
type builtin struct {
	name                   string
	delay, stripe, maxWait bool
	build                  func(Args) Policy
}

// builtins is the fixed set of policies reachable from spec files and the
// physchedd service, sorted by name.
var builtins = [...]builtin{
	{name: "adaptive", stripe: true, build: func(a Args) Policy { return NewAdaptive(stripeOrDefault(a)) }},
	{name: "affinefarm", build: func(Args) Policy { return NewAffineFarm() }},
	{name: "cacheoriented", build: func(Args) Policy { return NewCacheOriented() }},
	{name: "delayed", delay: true, stripe: true, build: func(a Args) Policy {
		return NewDelayed(a.DelayHours*model.Hour, stripeOrDefault(a))
	}},
	{name: "farm", build: func(Args) Policy { return NewFarm() }},
	{name: "outoforder", maxWait: true, build: func(a Args) Policy { return withMaxWait(NewOutOfOrder(), a) }},
	{name: "partitioned", build: func(Args) Policy { return NewPartitioned() }},
	{name: "replication", maxWait: true, build: func(a Args) Policy { return withMaxWait(NewReplication(), a) }},
	{name: "splitting", build: func(Args) Policy { return NewSplitting() }},
}

// New builds the named policy with the given arguments. Unknown names
// report the known ones, so a typo in a spec file is self-diagnosing.
func New(name string, a Args) (Policy, error) {
	b, err := check(name, a)
	if err != nil {
		return nil, err
	}
	return b.build(a), nil
}

// Check reports the error New would return for the same name and
// arguments, without building a policy.
func Check(name string, a Args) error {
	_, err := check(name, a)
	return err
}

// check finds the named policy and rejects arguments it does not take and
// negative ones. A spec naming the farm policy with delay_hours set would
// otherwise validate, run a plain farm, and make the user believe delayed
// scheduling was simulated — dead arguments must fail as loudly as
// misspelled field names do.
func check(name string, a Args) (*builtin, error) {
	if name == "" {
		return nil, fmt.Errorf("sched: policy name missing (known: %v)", Names())
	}
	var b *builtin
	for i := range builtins {
		if builtins[i].name == name {
			b = &builtins[i]
			break
		}
	}
	switch {
	case b == nil:
		return nil, fmt.Errorf("sched: unknown policy %q (known: %v)", name, Names())
	case !b.delay && a.DelayHours != 0:
		return nil, fmt.Errorf("sched: policy %q does not take delay_hours", name)
	case !b.stripe && a.StripeEvents != 0:
		return nil, fmt.Errorf("sched: policy %q does not take stripe_events", name)
	case !b.maxWait && a.MaxWaitHours != 0:
		return nil, fmt.Errorf("sched: policy %q does not take max_wait_hours", name)
	case a.DelayHours < 0:
		return nil, fmt.Errorf("sched: delayed policy needs a non-negative delay, got %v h", a.DelayHours)
	case a.StripeEvents < 0:
		return nil, fmt.Errorf("sched: stripe_events must be non-negative, got %d", a.StripeEvents)
	case a.MaxWaitHours < 0:
		return nil, fmt.Errorf("sched: max_wait_hours must be non-negative, got %v", a.MaxWaitHours)
	}
	return b, nil
}

// Names lists the built-in policy names, sorted.
func Names() []string {
	out := make([]string, len(builtins))
	for i, b := range builtins {
		out[i] = b.name
	}
	return out
}

// stripeOrDefault applies the paper's default stripe size.
func stripeOrDefault(a Args) int64 {
	if a.StripeEvents > 0 {
		return a.StripeEvents
	}
	return DefaultStripe
}

// withMaxWait applies the optional out-of-order aging-limit override.
func withMaxWait(p *OutOfOrder, a Args) Policy {
	if a.MaxWaitHours > 0 {
		p.MaxWait = a.MaxWaitHours * model.Hour
	}
	return p
}
