package serve

import (
	"sync"
	"time"
)

// limiter is a per-client token bucket: each client key (X-UVE-Client
// header, falling back to the remote host) gets burst tokens refilled at
// rate per second. Submission endpoints spend one token per request; an
// empty bucket is a 429 with a retriable body. Rate 0 with a positive
// burst is a fixed, non-refilling allowance (deterministic tests use it);
// rate and burst both <= 0 disables limiting entirely.
//
// With rate > 0, a bucket that has refilled to burst behaves exactly like
// a missing one, so allow drops such buckets in a sweep at most once per
// refill time (burst/rate): by then every bucket untouched since the
// previous sweep is full, and the map holds only recently seen clients.
// With rate 0 buckets never refill, and one is kept per client key.
type limiter struct {
	rate  float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*bucket
	swept   time.Time
	rejects int
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newLimiter(rate, burst float64) *limiter {
	if burst <= 0 && rate > 0 {
		burst = rate
		if burst < 1 {
			burst = 1
		}
	}
	return &limiter{rate: rate, burst: burst, buckets: make(map[string]*bucket)}
}

func (l *limiter) enabled() bool { return l.rate > 0 || l.burst > 0 }

// allow spends one token from the client's bucket, reporting whether the
// request may proceed.
func (l *limiter) allow(client string, now time.Time) bool {
	if !l.enabled() {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate > 0 && now.Sub(l.swept).Seconds()*l.rate >= l.burst {
		for k, b := range l.buckets {
			if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
				delete(l.buckets, k)
			}
		}
		l.swept = now
	}
	b := l.buckets[client]
	if b == nil {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	}
	if l.rate > 0 {
		elapsed := now.Sub(b.last).Seconds()
		if elapsed > 0 {
			b.tokens += elapsed * l.rate
			if b.tokens > l.burst {
				b.tokens = l.burst
			}
		}
	}
	b.last = now
	if b.tokens < 1 {
		l.rejects++
		return false
	}
	b.tokens--
	return true
}

// rejected returns how many requests the limiter has refused.
func (l *limiter) rejected() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rejects
}
