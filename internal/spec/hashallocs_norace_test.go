//go:build !race

package spec

// hashAllocLimit is TestHashAllocs' bound in a normal build.
const hashAllocLimit = 4
