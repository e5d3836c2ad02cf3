package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/serve"
	"repro/internal/store"
)

// newServer opens a store over dir and starts a server plus its HTTP
// front-end. Both are torn down with the test.
func newServer(t *testing.T, dir string, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	cfg.Store = st
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

type jobResp struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	FromStore bool            `json:"from_store"`
	Error     string          `json:"error"`
	Retriable bool            `json:"retriable"`
	Report    json.RawMessage `json:"report"`
}

type submitResp struct {
	Jobs []jobResp `json:"jobs"`
}

// postJobs submits a batch as one client and decodes the response.
func postJobs(t *testing.T, url, client string, specs []serve.JobSpec, query string) (int, submitResp, []byte) {
	t.Helper()
	body, err := json.Marshal(struct {
		Jobs []serve.JobSpec `json:"jobs"`
	}{specs})
	if err != nil {
		t.Fatalf("marshal specs: %v", err)
	}
	req, err := http.NewRequest("POST", url+"/v1/jobs"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	req.Header.Set("X-UVE-Client", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	var sr submitResp
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(buf.Bytes(), &sr); err != nil {
			t.Fatalf("decode response: %v\n%s", err, buf.Bytes())
		}
	}
	return resp.StatusCode, sr, buf.Bytes()
}

// getReport fetches the raw report payload for a done job.
func getReport(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatalf("GET report: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read report: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report %s: status %d: %s", id, resp.StatusCode, buf.Bytes())
	}
	return buf.Bytes()
}

func getStats(t *testing.T, url string) serve.Stats {
	t.Helper()
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		t.Fatalf("GET stats: %v", err)
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return st
}

// matrix is the shared kernel×variant×size job set the headline and
// restart tests submit.
func matrix() []serve.JobSpec {
	return []serve.JobSpec{
		{Kernel: "C", Variant: "uve", Size: 4096},
		{Kernel: "C", Variant: "sve", Size: 4096},
		{Kernel: "A", Variant: "uve", Size: 4096},
		{Kernel: "C", Variant: "uve", Size: 8192},
	}
}

// TestConcurrentClientsByteIdentical is the headline: N concurrent
// clients submit the same kernel×variant×size matrix and every client
// receives byte-identical report documents for each matrix cell, while
// the server simulates each unique cell exactly once. A follow-up wave
// is then served entirely from the store.
func TestConcurrentClientsByteIdentical(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), serve.Config{Workers: 4})
	specs := matrix()

	const clients = 4
	reports := make([][][]byte, clients) // [client][matrix cell]
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			status, sr, raw := postJobs(t, ts.URL, fmt.Sprintf("client-%d", c), specs, "?wait=1")
			if status != http.StatusOK {
				errs <- fmt.Errorf("client %d: status %d: %s", c, status, raw)
				return
			}
			if len(sr.Jobs) != len(specs) {
				errs <- fmt.Errorf("client %d: %d jobs, want %d", c, len(sr.Jobs), len(specs))
				return
			}
			got := make([][]byte, len(specs))
			for i, j := range sr.Jobs {
				if j.State != "done" {
					errs <- fmt.Errorf("client %d job %s: state %s (%s)", c, j.ID, j.State, j.Error)
					return
				}
				got[i] = getReport(t, ts.URL, j.ID)
			}
			reports[c] = got
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := range specs {
		for c := 1; c < clients; c++ {
			if !bytes.Equal(reports[0][i], reports[c][i]) {
				t.Errorf("matrix cell %d: client %d report differs from client 0:\n%s\nvs\n%s",
					i, c, reports[c][i], reports[0][i])
			}
		}
		for j := i + 1; j < len(specs); j++ {
			if bytes.Equal(reports[0][i], reports[0][j]) {
				t.Errorf("matrix cells %d and %d produced identical reports", i, j)
			}
		}
		if !bytes.Contains(reports[0][i], []byte(`"schema_version"`)) {
			t.Errorf("cell %d report missing schema_version:\n%s", i, reports[0][i])
		}
	}

	stats := getStats(t, ts.URL)
	if stats.Runner.Simulated != len(specs) {
		t.Errorf("Simulated = %d, want %d (one per unique matrix cell)",
			stats.Runner.Simulated, len(specs))
	}
	if stats.Runner.Submitted != len(specs) {
		t.Errorf("Submitted = %d, want %d (the singleflight and the store must answer every repeat)",
			stats.Runner.Submitted, len(specs))
	}

	// A second wave after everything settled must come from the store.
	_, sr, _ := postJobs(t, ts.URL, "late-client", specs, "?wait=1")
	for i, j := range sr.Jobs {
		if j.State != "done" || !j.FromStore {
			t.Errorf("wave-2 job %d: state=%s from_store=%v, want done from store", i, j.State, j.FromStore)
		}
		if got := getReport(t, ts.URL, j.ID); !bytes.Equal(got, reports[0][i]) {
			t.Errorf("wave-2 cell %d report differs from wave 1", i)
		}
	}
	stats = getStats(t, ts.URL)
	if stats.StoreHits < len(specs) {
		t.Errorf("store hits = %d after wave 2, want >= %d", stats.StoreHits, len(specs))
	}
	if stats.Runner.Simulated != len(specs) {
		t.Errorf("Simulated = %d after wave 2, want still %d", stats.Runner.Simulated, len(specs))
	}
}

// TestRestartServesFromStore restarts the daemon (new Server, new Store
// handle, same directory) and asserts the full matrix is served from
// disk, byte-identical, with a positive hit rate.
func TestRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	specs := matrix()

	_, ts1 := newServer(t, dir, serve.Config{Workers: 4})
	_, sr, raw := postJobs(t, ts1.URL, "gen", specs, "?wait=1")
	if len(sr.Jobs) != len(specs) {
		t.Fatalf("wave 1: %d jobs, want %d: %s", len(sr.Jobs), len(specs), raw)
	}
	first := make([][]byte, len(specs))
	for i, j := range sr.Jobs {
		if j.State != "done" {
			t.Fatalf("wave 1 job %s: state %s (%s)", j.ID, j.State, j.Error)
		}
		first[i] = getReport(t, ts1.URL, j.ID)
	}
	ts1.Close()

	// "Restart": a fresh server over the same directory.
	_, ts2 := newServer(t, dir, serve.Config{Workers: 4})
	_, sr2, _ := postJobs(t, ts2.URL, "gen", specs, "?wait=1")
	for i, j := range sr2.Jobs {
		if j.State != "done" {
			t.Fatalf("restart job %s: state %s (%s)", j.ID, j.State, j.Error)
		}
		if !j.FromStore {
			t.Errorf("restart job %d not served from store", i)
		}
		if got := getReport(t, ts2.URL, j.ID); !bytes.Equal(got, first[i]) {
			t.Errorf("restart cell %d: report differs across restart:\n%s\nvs\n%s", i, got, first[i])
		}
	}
	stats := getStats(t, ts2.URL)
	if stats.StoreHits <= 0 {
		t.Errorf("restart store hit rate = %d, want > 0", stats.StoreHits)
	}
	if stats.Runner.Simulated != 0 {
		t.Errorf("restart Simulated = %d, want 0", stats.Runner.Simulated)
	}
}

// waitState polls a job until it reaches any of the wanted states.
func waitState(t *testing.T, s *serve.Server, id string, want ...serve.JobState) serve.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Status(id)
		if !ok {
			// Submission may still be in flight (async HTTP clients).
			time.Sleep(time.Millisecond)
			continue
		}
		for _, w := range want {
			if st.State == w {
				return st
			}
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := s.Status(id)
	t.Fatalf("job %s stuck in %s, wanted one of %v", id, st.State, want)
	return serve.JobStatus{}
}

// TestDrainFinishesInflightRejectsQueued: with one worker, the running
// job completes during drain while queued jobs are rejected with a
// retriable status, and post-drain submissions are rejected too.
func TestDrainFinishesInflightRejectsQueued(t *testing.T) {
	s, _ := newServer(t, t.TempDir(), serve.Config{Workers: 1, QueueLen: 8})

	running, err := s.Submit(serve.JobSpec{Kernel: "C", Variant: "uve", Size: 1 << 17})
	if err != nil {
		t.Fatalf("submit running job: %v", err)
	}
	waitState(t, s, running, serve.StateRunning)

	// The single worker is busy, so these stay queued.
	var queued []string
	for _, spec := range []serve.JobSpec{
		{Kernel: "A", Variant: "uve", Size: 2048},
		{Kernel: "C", Variant: "sve", Size: 2048},
	} {
		id, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("submit queued job: %v", err)
		}
		queued = append(queued, id)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s.Drain(ctx)

	st, _ := s.Status(running)
	if st.State != serve.StateDone {
		t.Errorf("in-flight job: state %s (%s), want done", st.State, st.Error)
	}
	if len(st.Payload) == 0 {
		t.Errorf("in-flight job finished without a payload")
	}
	for _, id := range queued {
		st, _ := s.Status(id)
		if st.State != serve.StateRejected {
			t.Errorf("queued job %s: state %s, want rejected", id, st.State)
		}
		if !st.Retriable {
			t.Errorf("queued job %s rejection not marked retriable", id)
		}
	}

	id, err := s.Submit(serve.JobSpec{Kernel: "C", Variant: "uve", Size: 1024})
	if err != nil {
		t.Fatalf("post-drain submit: %v", err)
	}
	st, _ = s.Status(id)
	if st.State != serve.StateRejected || !st.Retriable {
		t.Errorf("post-drain job: state=%s retriable=%v, want rejected retriable", st.State, st.Retriable)
	}
}

// TestCancelOnDisconnect: a waiting client that goes away with
// cancel_on_disconnect set kills its job, and since a canceled execution
// is never persisted, a resubmission re-executes.
func TestCancelOnDisconnect(t *testing.T) {
	s, ts := newServer(t, t.TempDir(), serve.Config{Workers: 1})

	spec := serve.JobSpec{Kernel: "C", Variant: "uve", Size: 1 << 19}
	body, _ := json.Marshal(spec)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST",
		ts.URL+"/v1/jobs?wait=1&cancel_on_disconnect=1", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()

	// Deterministic first-job ID on a fresh server.
	const id = "job-1"
	waitState(t, s, id, serve.StateRunning, serve.StateDone)
	if st, _ := s.Status(id); st.State == serve.StateDone {
		t.Skip("simulation finished before the client could disconnect")
	}
	cancel()
	<-done

	st := waitState(t, s, id, serve.StateCanceled, serve.StateDone)
	if st.State != serve.StateCanceled {
		t.Skipf("job settled %s before cancellation took effect", st.State)
	}
	if !strings.Contains(st.Error, "canceled") {
		t.Errorf("canceled job error = %q, want mention of cancellation", st.Error)
	}

	// A canceled run is never replayed: the same spec re-executes to done.
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	st = waitState(t, s, again, serve.StateDone, serve.StateFailed, serve.StateCanceled)
	if st.State != serve.StateDone || st.FromStore {
		t.Errorf("resubmitted job: state %s (%s) from_store=%v, want done by a fresh execution",
			st.State, st.Error, st.FromStore)
	}
	if got := getStats(t, ts.URL); got.Runner.Simulated != 2 {
		t.Errorf("Simulated = %d, want 2 (the canceled run and its re-execution)", got.Runner.Simulated)
	}
}

// TestRateLimit: a fixed per-client allowance (rate 0, burst 2) rejects
// the third submission from one client with 429/retriable while other
// clients are unaffected.
func TestRateLimit(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), serve.Config{Workers: 1, Burst: 2})

	spec := []serve.JobSpec{{Kernel: "C", Variant: "uve", Size: 1024, Fidelity: "functional"}}
	for i := 0; i < 2; i++ {
		if status, _, raw := postJobs(t, ts.URL, "greedy", spec, ""); status != http.StatusOK {
			t.Fatalf("submission %d: status %d: %s", i, status, raw)
		}
	}
	status, _, raw := postJobs(t, ts.URL, "greedy", spec, "")
	if status != http.StatusTooManyRequests {
		t.Fatalf("third submission: status %d, want 429: %s", status, raw)
	}
	var apiErr struct {
		Error     string `json:"error"`
		Retriable bool   `json:"retriable"`
	}
	if err := json.Unmarshal(raw, &apiErr); err != nil {
		t.Fatalf("decode 429 body: %v", err)
	}
	if !apiErr.Retriable {
		t.Errorf("rate-limit rejection not marked retriable: %s", raw)
	}

	if status, _, raw := postJobs(t, ts.URL, "modest", spec, ""); status != http.StatusOK {
		t.Errorf("other client: status %d, want 200: %s", status, raw)
	}
	if got := getStats(t, ts.URL); got.RateLimited != 1 {
		t.Errorf("rate_limited = %d, want 1", got.RateLimited)
	}
}

// TestStreamProgress: a traced job streams NDJSON progress snapshots
// with nondecreasing cycles, then a final line carrying the settled
// status and the report document (with the stall section).
func TestStreamProgress(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), serve.Config{Workers: 1})

	specs := []serve.JobSpec{{Kernel: "C", Variant: "uve", Size: 1 << 18, Trace: true}}
	status, sr, raw := postJobs(t, ts.URL, "streamer", specs, "")
	if status != http.StatusOK || len(sr.Jobs) != 1 {
		t.Fatalf("submit: status %d: %s", status, raw)
	}
	id := sr.Jobs[0].ID

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream?interval_ms=2")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q, want application/x-ndjson", ct)
	}

	type streamLine struct {
		Progress *struct {
			Cycle     int64 `json:"cycle"`
			Committed int64 `json:"committed"`
		} `json:"progress"`
		Final *jobResp `json:"final"`
	}
	var (
		progressLines int
		lastCycle     int64
		final         *jobResp
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l streamLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch {
		case l.Progress != nil:
			progressLines++
			if l.Progress.Cycle < lastCycle {
				t.Errorf("progress cycle went backwards: %d after %d", l.Progress.Cycle, lastCycle)
			}
			lastCycle = l.Progress.Cycle
		case l.Final != nil:
			final = l.Final
		default:
			t.Errorf("stream line with neither progress nor final: %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if final == nil {
		t.Fatal("stream ended without a final line")
	}
	if final.State != "done" {
		t.Fatalf("final state = %s (%s), want done", final.State, final.Error)
	}
	if progressLines == 0 {
		t.Error("no progress lines before the final line")
	}
	if !bytes.Contains(final.Report, []byte(`"uveserve"`)) ||
		!bytes.Contains(final.Report, []byte(`"stalls"`)) {
		t.Errorf("final report missing tool/stall section:\n%s", final.Report)
	}
}

// TestSubmitValidation rejects malformed specs with 400 and a
// non-retriable error body, registering and building nothing.
func TestSubmitValidation(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), serve.Config{Workers: 1})

	// A size over the kernel's MaxSize is refused, naming the bound.
	bound := func(id string) string { return fmt.Sprintf("bound of %d", kernels.ByID(id).MaxSize) }
	cases := []struct {
		name string
		spec serve.JobSpec
		msg  string // in the error
	}{
		{"unknown kernel", serve.JobSpec{Kernel: "ZZZ", Variant: "uve"}, "unknown kernel"},
		{"unknown variant", serve.JobSpec{Kernel: "C", Variant: "avx512"}, "unknown variant"},
		{"negative size", serve.JobSpec{Kernel: "C", Variant: "uve", Size: -1}, "invalid size"},
		{"functional trace", serve.JobSpec{Kernel: "C", Variant: "uve", Fidelity: "functional", Trace: true}, "cannot record traces"},
		{"K n=48", serve.JobSpec{Kernel: "K", Variant: "uve", Size: 48}, bound("K")},
		{"S n=128", serve.JobSpec{Kernel: "S", Variant: "uve", Size: 128}, bound("S")},
		{"C n=2^21", serve.JobSpec{Kernel: "C", Variant: "uve", Size: 1 << 21}, bound("C")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, raw := postJobs(t, ts.URL, "bad", []serve.JobSpec{tc.spec}, "")
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, raw)
			}
			var apiErr struct {
				Error     string `json:"error"`
				Retriable bool   `json:"retriable"`
			}
			if err := json.Unmarshal(raw, &apiErr); err == nil && apiErr.Retriable {
				t.Errorf("validation error marked retriable: %s", raw)
			}
			if !strings.Contains(apiErr.Error, tc.msg) {
				t.Errorf("error %q does not mention %q", apiErr.Error, tc.msg)
			}
			if st := getStats(t, ts.URL); st.Jobs != 0 || st.FingerprintBuilds != 0 {
				t.Errorf("after the refusal: jobs=%d fingerprint_builds=%d, want 0 and 0", st.Jobs, st.FingerprintBuilds)
			}
		})
	}

	// Whole-request rejections register nothing, not even a batch's valid
	// specs: the body and batch are bounded, and every spec is validated
	// before any is registered.
	valid := serve.JobSpec{Kernel: "C", Variant: "uve", Size: 256}
	copies := func(n int) []serve.JobSpec {
		specs := make([]serve.JobSpec, n)
		for i := range specs {
			specs[i] = valid
		}
		return specs
	}
	for _, tc := range []struct {
		name   string
		specs  []serve.JobSpec
		status int
	}{
		{"mixed batch", []serve.JobSpec{valid, {Kernel: "ZZZ", Variant: "uve"}}, http.StatusBadRequest},
		{"oversized body", copies(40001), http.StatusRequestEntityTooLarge},
		{"overlong batch", copies(1025), http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, _, raw := postJobs(t, ts.URL, "bad", tc.specs, "")
			if status != tc.status {
				t.Fatalf("status %d, want %d: %.200s", status, tc.status, raw)
			}
			if st := getStats(t, ts.URL); st.Jobs != 0 || st.Runner.Simulated != 0 {
				t.Errorf("after the rejection: jobs=%d simulated=%d, want 0 and 0", st.Jobs, st.Runner.Simulated)
			}
		})
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatalf("POST garbage: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/job-999")
	if err != nil {
		t.Fatalf("GET unknown job: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestSingleSpecSubmitAndHealthz covers the non-batch body shape and the
// health endpoint.
func TestSingleSpecSubmitAndHealthz(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), serve.Config{Workers: 1})

	body, _ := json.Marshal(serve.JobSpec{Kernel: "C", Variant: "uve", Size: 1024})
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST single spec: %v", err)
	}
	var sr submitResp
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if len(sr.Jobs) != 1 || sr.Jobs[0].State != "done" {
		t.Fatalf("single-spec submit: %+v", sr)
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if hz.Status != "ok" {
		t.Errorf("healthz = %q, want ok", hz.Status)
	}
}
