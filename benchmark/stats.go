package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs, or the mean of the two middle values for
// an even count (Python's statistics.median). It is 0 for no values.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs computed exactly as
// Python's statistics.quantiles(xs, n=4) does with its default exclusive
// method, so the steadiness report measures spread the way the acceptance
// check does.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// tailLadder lists, in per-mille, the percentiles job_tail_ms may report.
// It stops at p99: a p99.9 over a few dozen samples beyond it swings with
// every GC pause.
var tailLadder = []int{500, 900, 990}

// minBeyond is how many samples a reported percentile needs above it.
const minBeyond = 10

// rank is the 1-based nearest rank of a percentile among n samples:
// ceil(perMille/1000 × n), at least 1.
func rank(perMille, n int) int {
	return max(1, (perMille*n+999)/1000)
}

// tailPerMille picks the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it. ok is false when not even the median
// qualifies; the maximum (1000) is then returned. A workload fixes its tail
// percentile from the job count every window reaches, so the percentile
// never depends on how many jobs a window happened to fit.
func tailPerMille(n int) (perMille int, ok bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if pm := tailLadder[i]; n-rank(pm, n) >= minBeyond {
			return pm, true
		}
	}
	return 1000, false
}

// percentile returns the nearest-rank percentile of xs and how many samples
// lie beyond it.
func percentile(xs []float64, perMille int) (value float64, beyond int) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	r := min(rank(perMille, n), n)
	return s[r-1], n - r
}

// outcome is what one job computed: the simulated cycles (0 on the
// functional tier), committed instructions and a hash of the final state
// (the memory-image digest, or the report payload for served jobs). A pure
// speed-up leaves every outcome unchanged.
type outcome struct {
	Cycles    int64
	Committed uint64
	Hash      uint64
}

// digest hashes every job's outcome in job-id order. It depends only on what
// the jobs computed, never on which worker ran a job or when it finished.
func digest(outs map[string]outcome) string {
	ids := make([]string, 0, len(outs))
	for id := range outs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		o := outs[id]
		fmt.Fprintf(h, "%s %d %d %016x\n", id, o.Cycles, o.Committed, o.Hash)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
