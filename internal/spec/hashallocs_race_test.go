//go:build race

package spec

// hashAllocLimit is TestHashAllocs' bound. The race detector's
// instrumentation adds up to two allocations to Hash.
const hashAllocLimit = 6
