package cache

import (
	"math/rand"
	"testing"

	"physched/internal/dataspace"
)

// streamRanges returns n cache insertions shaped like a node's reads:
// runs of eight consecutive 500-event pieces at a random start in a
// 2,000,000-event dataspace, the way subjobs stream a job's range.
func streamRanges(seed int64, n int) []dataspace.Interval {
	rng := rand.New(rand.NewSource(seed))
	out := make([]dataspace.Interval, 0, n)
	var pos int64
	for i := 0; i < n; i++ {
		if i%8 == 0 {
			pos = rng.Int63n(2_000_000)
		}
		out = append(out, dataspace.Iv(pos, pos+500))
		pos += 500
	}
	return out
}

// BenchmarkLRUInsert measures one streamed insertion into a full
// 200,000-event cache: the directory seek, refreshing what is cached and
// evicting the least recently used segments for the rest.
func BenchmarkLRUInsert(b *testing.B) {
	ivs := streamRanges(5, 4096)
	c := NewLRU(200_000, EvictLRU)
	defer c.Release()
	for i, iv := range ivs {
		c.Insert(iv, float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(ivs[i%len(ivs)], float64(len(ivs)+i))
	}
}

// BenchmarkAppendPartitionByNode measures partitioning one 30,000-event
// job range over ten full node caches, as the cache-aware policies do on
// each dispatch.
func BenchmarkAppendPartitionByNode(b *testing.B) {
	ix := NewIndex(10, 200_000, EvictLRU)
	for n := 0; n < ix.Nodes(); n++ {
		for i, iv := range streamRanges(int64(10+n), 2048) {
			ix.Node(n).Insert(iv, float64(i))
		}
	}
	jobs := make([]int64, 1024)
	rng := rand.New(rand.NewSource(6))
	for i := range jobs {
		jobs[i] = rng.Int63n(2_000_000)
	}
	var dst []NodePiece
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := jobs[i%len(jobs)]
		dst = ix.AppendPartitionByNode(dataspace.Iv(s, s+30_000), dst[:0])
	}
}
