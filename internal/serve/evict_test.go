package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/store"
)

// startServer starts a server over a fresh store, closed with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	cfg.Store = st
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

// TestEvictionBound registers one store-hit spec 2*keepJobs+1 times. The
// table stays within 2*keepJobs jobs, the newest keepJobs IDs still answer,
// an evicted ID answers 410 Gone and one never issued 404, and a job that
// joined a running execution before the sweeps is still there after them.
func TestEvictionBound(t *testing.T) {
	s := startServer(t, Config{Workers: 1, QueueLen: 8})

	hit, err := s.prepare(JobSpec{Kernel: "C", Variant: "uve", Size: 256})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	first, e := s.register(hit)
	<-e.done
	if e.state != StateDone {
		t.Fatalf("%s: state %s (%s), want done", first, e.state, e.errMsg)
	}

	// Keep the single worker busy with a simulation far longer than the
	// test, join it, and cancel it at the end.
	long, err := s.prepare(JobSpec{Kernel: "D", Variant: "uve", Size: 320})
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	running, le := s.register(long)
	defer s.Cancel(running)
	for deadline := time.Now().Add(30 * time.Second); !le.running.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never started running", running)
		}
	}
	joined, je := s.register(long)
	if je != le {
		t.Fatalf("%s did not join the running execution of %s", joined, running)
	}

	var newest string
	for i := 0; i < 2*keepJobs+1; i++ {
		newest, _ = s.register(hit)
	}
	s.mu.Lock()
	retained, last := len(s.jobs), s.nextID
	s.mu.Unlock()
	if retained > 2*keepJobs {
		t.Errorf("table holds %d jobs, want at most %d", retained, 2*keepJobs)
	}
	if newest != jobID(last) {
		t.Fatalf("newest ID %s, want %s", newest, jobID(last))
	}

	h := s.Handler()
	get := func(id string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
		return rec.Code
	}
	for n := last - keepJobs + 1; n <= last; n++ {
		if code := get(jobID(n)); code != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", jobID(n), code)
		}
	}
	if code := get(first); code != http.StatusGone {
		t.Errorf("evicted %s: status %d, want 410", first, code)
	}
	if code := get("job-99999999"); code != http.StatusNotFound {
		t.Errorf("never-issued job: status %d, want 404", code)
	}
	if st, ok := s.Status(joined); !ok || (st.State != StateQueued && st.State != StateRunning) {
		t.Errorf("joined %s: found=%v state %s, want queued or running", joined, ok, st.State)
	}
}
