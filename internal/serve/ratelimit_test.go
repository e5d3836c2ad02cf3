package serve

import (
	"strconv"
	"testing"
	"time"
)

// TestLimiterSweepsFullBuckets: 100,000 clients that each spend one token
// leave no buckets behind once they have refilled, while a client still
// mid-burst at a sweep keeps its spent tokens.
func TestLimiterSweepsFullBuckets(t *testing.T) {
	l := newLimiter(10, 5) // refills an empty bucket in 0.5 s
	t0 := time.Unix(0, 0)
	for i := 0; i < 100_000; i++ {
		if !l.allow(strconv.Itoa(i), t0) {
			t.Fatalf("client %d refused its first request", i)
		}
	}

	t1 := t0.Add(time.Hour)
	l.allow("late", t1)
	if n := len(l.buckets); n > 2 {
		t.Fatalf("%d buckets an hour later, want at most 2", n)
	}

	// "busy" spends its burst 0.25 s after the sweep at t1; the sweep due at
	// t1+0.5 s finds it at 2.5 tokens and must keep it.
	for i := 0; i < 5; i++ {
		if !l.allow("busy", t1.Add(250*time.Millisecond)) {
			t.Fatalf("busy refused request %d of its burst", i)
		}
	}
	t2 := t1.Add(500 * time.Millisecond)
	l.allow("other", t2)
	if n := len(l.buckets); n > 2 {
		t.Errorf("%d buckets after the second sweep, want at most 2", n)
	}
	for i := 0; i < 2; i++ {
		if !l.allow("busy", t2) {
			t.Fatalf("busy refused refilled token %d", i)
		}
	}
	if l.allow("busy", t2) {
		t.Error("the sweep forgot busy's spent tokens")
	}
}
