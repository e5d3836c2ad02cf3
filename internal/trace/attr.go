package trace

// Interval is one attribution bucket: per-class cycle counts for the
// [Start, Start+len) window.
type Interval struct {
	Start  int64
	Counts [ClassCount]int64
}

// Sum returns the total cycles attributed in the interval.
func (iv *Interval) Sum() int64 {
	var s int64
	for _, c := range iv.Counts {
		s += c
	}
	return s
}

// Attribution folds per-cycle class events into fixed-width intervals.
// Interval <= 0 collapses the whole run into a single bucket. Cycles are
// 1-based (the core's first Step reports cycle 1), so cycle c lands in
// bucket (c-1)/Interval.
type Attribution struct {
	Interval  int64
	intervals []Interval
}

func (a *Attribution) add(cycle int64, class StallClass) {
	if class >= ClassCount {
		class = ClassExec
	}
	idx := 0
	if a.Interval > 0 {
		if cycle < 1 {
			cycle = 1
		}
		idx = int((cycle - 1) / a.Interval)
	}
	for len(a.intervals) <= idx {
		a.intervals = append(a.intervals, Interval{Start: int64(len(a.intervals)) * a.Interval})
	}
	a.intervals[idx].Counts[class]++
}

// Intervals returns the attribution buckets in time order. Empty trailing
// buckets are never created; a gap (an interval with no cycles, impossible
// in practice since the core emits one class per Step) would appear as an
// all-zero bucket.
func (a *Attribution) Intervals() []Interval { return a.intervals }

// Totals sums the per-class counts across all intervals.
func (a *Attribution) Totals() [ClassCount]int64 {
	var t [ClassCount]int64
	for i := range a.intervals {
		for c, n := range a.intervals[i].Counts {
			t[c] += n
		}
	}
	return t
}

// Attributed returns the total cycles attributed across all classes.
func (a *Attribution) Attributed() int64 {
	var s int64
	for _, n := range a.Totals() {
		s += n
	}
	return s
}

// AttributedExcludingDrain returns attributed cycles minus the post-halt
// store-drain class. The core halts at Result.Cycles but keeps stepping to
// drain its store queue; those extra steps are classified ClassDrain, so
// this quantity equals Result.Cycles exactly (the conservative-completeness
// invariant the bench tests enforce).
func (a *Attribution) AttributedExcludingDrain() int64 {
	t := a.Totals()
	return a.Attributed() - t[ClassDrain]
}

// Breakdown folds the totals into a map from class name to cycles, zero
// classes and the post-halt drain class omitted, and returns the drain
// count beside it. The map is never nil.
func (a *Attribution) Breakdown() (byClass map[string]int64, drain int64) {
	t := a.Totals()
	byClass = make(map[string]int64)
	for cl := StallClass(0); cl < ClassCount; cl++ {
		if cl != ClassDrain && t[cl] != 0 {
			byClass[cl.String()] = t[cl]
		}
	}
	return byClass, t[ClassDrain]
}
