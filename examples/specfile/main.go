// Specfile: drive a scenario grid from a versioned, declarative JSON spec
// — the serialisable scenario format of this repository. The embedded
// grid.json is the exact format `physchedsim grid.json` and the physchedd
// service accept; this program parses it, prints its content hash,
// executes it twice against a result cache, and shows the second pass
// serving every cell from the cache without re-simulating.
package main

import (
	"bytes"
	"fmt"
	"log"

	_ "embed"

	"physched"
)

//go:embed grid.json
var gridJSON []byte

func main() {
	g, err := physched.ParseGridSpec(bytes.NewReader(gridJSON))
	if err != nil {
		log.Fatal(err)
	}
	hash, err := g.Hash()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid spec hash %.12s… (%d variants × %d loads × %d seeds)\n\n",
		hash, len(g.Variants), len(g.Loads), len(g.Seeds))

	grid, err := g.Compile()
	if err != nil {
		log.Fatal(err)
	}
	cache, err := physched.OpenResultCache("") // in-memory; pass a directory to persist
	if err != nil {
		log.Fatal(err)
	}
	opts := physched.Options{Cache: cache, Keys: g.Keys()}

	rs, err := grid.Execute(opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range rs.Curves() {
		fmt.Printf("%-14s", c.Label)
		for _, r := range c.Results {
			if r.Overloaded {
				fmt.Printf("  %5.2f j/h: overloaded", r.Load)
				continue
			}
			fmt.Printf("  %5.2f j/h: speedup %5.2f", r.Load, r.AvgSpeedup)
		}
		fmt.Println()
	}
	fmt.Printf("\nfirst pass:  %d cells simulated, %d from cache\n",
		len(rs.Results)-rs.CacheHits, rs.CacheHits)

	// Re-executing the same spec hits the content-addressed cache for
	// every cell — nothing is simulated again.
	rs2, err := grid.Execute(opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second pass: %d cells simulated, %d from cache\n",
		len(rs2.Results)-rs2.CacheHits, rs2.CacheHits)
}
