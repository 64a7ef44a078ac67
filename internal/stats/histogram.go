package stats

import (
	"fmt"
	"math"
	"strings"
)

// LogHistogram buckets positive observations into logarithmically spaced
// bins, as used by the paper's Figure 4 (waiting-time distribution plotted
// on a log-log scale from minutes to days).
type LogHistogram struct {
	lo, hi  float64 // bucket range; values outside are clamped
	perDec  int     // buckets per decade
	counts  []int64
	under   int64 // observations below lo (including zeros)
	total   int64
	decades float64
}

// NewLogHistogram builds a histogram covering [lo, hi) with perDecade
// buckets per factor of 10. lo and hi must be positive with lo < hi.
func NewLogHistogram(lo, hi float64, perDecade int) *LogHistogram {
	if lo <= 0 || hi <= lo || perDecade <= 0 {
		panic("stats: invalid LogHistogram bounds")
	}
	decades := math.Log10(hi / lo)
	n := int(math.Ceil(decades * float64(perDecade)))
	return &LogHistogram{lo: lo, hi: hi, perDec: perDecade, counts: make([]int64, n), decades: decades}
}

// Add records one observation. Non-positive and sub-lo values count in the
// underflow bucket; values at or above hi land in the last bucket.
func (h *LogHistogram) Add(x float64) {
	h.total++
	if x < h.lo {
		h.under++
		return
	}
	i := int(math.Log10(x/h.lo) * float64(h.perDec))
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	h.counts[i]++
}

// Total returns the number of observations, including underflow.
func (h *LogHistogram) Total() int64 { return h.total }

// Bucket describes one histogram bin.
type Bucket struct {
	Lo, Hi float64
	Count  int64
}

// Buckets returns the bins in ascending order.
func (h *LogHistogram) Buckets() []Bucket {
	out := make([]Bucket, len(h.counts))
	for i := range h.counts {
		out[i] = Bucket{
			Lo:    h.lo * math.Pow(10, float64(i)/float64(h.perDec)),
			Hi:    h.lo * math.Pow(10, float64(i+1)/float64(h.perDec)),
			Count: h.counts[i],
		}
	}
	return out
}

// String renders the histogram as a fixed-width ASCII chart, one line per
// non-empty bucket.
func (h *LogHistogram) String() string {
	var b strings.Builder
	maxCount := int64(1)
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	if h.under > 0 {
		fmt.Fprintf(&b, "%12s %6d\n", "<min", h.under)
	}
	for _, bk := range h.Buckets() {
		if bk.Count == 0 {
			continue
		}
		bar := strings.Repeat("#", int(40*bk.Count/maxCount))
		fmt.Fprintf(&b, "%12s %6d %s\n", FormatDuration(bk.Lo), bk.Count, bar)
	}
	return b.String()
}

// FormatDuration renders a duration in seconds using the units of the
// paper's axes (s, mn, h, day, week).
func FormatDuration(sec float64) string {
	switch {
	case sec < 60:
		return fmt.Sprintf("%.0fs", sec)
	case sec < 3600:
		return fmt.Sprintf("%.1fmn", sec/60)
	case sec < 86400:
		return fmt.Sprintf("%.1fh", sec/3600)
	case sec < 7*86400:
		return fmt.Sprintf("%.1fday", sec/86400)
	default:
		return fmt.Sprintf("%.1fweek", sec/(7*86400))
	}
}
