package cache

import (
	"sort"

	"physched/internal/dataspace"
)

// CountMap counts accesses per event range. The data-replication policy of
// §4.2 keeps, on each node, "the number of remote accesses to its data
// segments" and replicates a segment on its third remote access. Counts
// are stored as disjoint sorted runs with uniform count.
type CountMap struct {
	runs    []countRun
	scratch []countRun // Increment's pending insertions, reused
}

type countRun struct {
	iv    dataspace.Interval
	count int64
}

// Increment adds one access to every event of iv and returns the minimum
// count over iv after the increment (the policy replicates when this
// reaches its threshold).
func (m *CountMap) Increment(iv dataspace.Interval) int64 {
	if iv.Empty() {
		return 0
	}
	m.splitAt(iv.Start)
	m.splitAt(iv.End)
	i := sort.Search(len(m.runs), func(i int) bool { return m.runs[i].iv.End > iv.Start })
	minCount := int64(1 << 62)
	pos := iv.Start
	insertions := m.scratch[:0]
	for ; i < len(m.runs) && m.runs[i].iv.Start < iv.End; i++ {
		r := &m.runs[i]
		if pos < r.iv.Start {
			insertions = append(insertions, countRun{dataspace.Iv(pos, r.iv.Start), 1})
			if minCount > 1 {
				minCount = 1
			}
		}
		r.count++
		if r.count < minCount {
			minCount = r.count
		}
		pos = r.iv.End
	}
	if pos < iv.End {
		insertions = append(insertions, countRun{dataspace.Iv(pos, iv.End), 1})
		if minCount > 1 {
			minCount = 1
		}
	}
	for _, ins := range insertions {
		m.insert(ins)
	}
	m.scratch = insertions
	return minCount
}

// Count returns the access count at event e (zero if never accessed).
func (m *CountMap) Count(e int64) int64 {
	i := sort.Search(len(m.runs), func(i int) bool { return m.runs[i].iv.End > e })
	if i < len(m.runs) && m.runs[i].iv.Contains(e) {
		return m.runs[i].count
	}
	return 0
}

// splitAt ensures no run straddles event index e.
func (m *CountMap) splitAt(e int64) {
	i := sort.Search(len(m.runs), func(i int) bool { return m.runs[i].iv.End > e })
	if i >= len(m.runs) || !m.runs[i].iv.Contains(e) || m.runs[i].iv.Start == e {
		return
	}
	r := m.runs[i]
	left := countRun{dataspace.Iv(r.iv.Start, e), r.count}
	m.runs[i].iv = dataspace.Iv(e, r.iv.End)
	m.runs = append(m.runs, countRun{})
	copy(m.runs[i+1:], m.runs[i:])
	m.runs[i] = left
}

func (m *CountMap) insert(r countRun) {
	i := sort.Search(len(m.runs), func(i int) bool { return m.runs[i].iv.Start >= r.iv.Start })
	m.runs = append(m.runs, countRun{})
	copy(m.runs[i+1:], m.runs[i:])
	m.runs[i] = r
}
