// Package obs is the service-layer observability toolkit: an audited
// wall-clock seam, structured JSON logging with injected timestamps,
// request-ID propagation, and fixed-bucket latency histograms rendered
// in the Prometheus text exposition format. Everything is stdlib-only
// and allocation-free on the hot observation path.
//
// The simulation core runs on sim time exclusively, so every
// wall-clock observation a service makes flows through an injected
// Clock. SystemClock below is the module's one time.Now: cmd/physchedd
// wires it at its boundary and passes the resulting Clock down to
// logging, histograms and job timestamps; tests substitute a fake and
// get deterministic log lines and metrics. TestSourceDeterminism in the
// root package fails on a wall-clock call outside its short table of
// allowed sites.
package obs

import "time"

// Clock supplies the current time. Service code never calls time.Now
// directly: it receives a Clock (SystemClock in production, a fake in
// tests), which keeps wall time injectable and every real-clock read at
// one site.
type Clock func() time.Time

// SystemClock is the production Clock and the module's one time.Now.
// Every service-layer timestamp (log records, request durations, queue
// waits, job lifecycle times) derives from it; a time.Now anywhere else
// fails TestSourceDeterminism.
func SystemClock() time.Time {
	return time.Now()
}

// NowNanos adapts a Clock to the monotonic-nanosecond form the
// lab.PoolHooks observation seam consumes.
func NowNanos(c Clock) func() int64 {
	return func() int64 { return c().UnixNano() }
}
