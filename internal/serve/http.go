package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

// Handler returns the server's HTTP API:
//
//	POST /v1/jobs                submit one spec or {"jobs": [...]}; ?wait=1
//	                             blocks until settled, ?cancel_on_disconnect=1
//	                             cancels execution if the waiting client goes
//	                             away
//	GET  /v1/jobs/{id}           job status (+ report when done); 410 once
//	                             the job is evicted, 404 if never issued
//	GET  /v1/jobs/{id}/report    raw report document bytes (the exact stored
//	                             payload — byte-identical across clients)
//	GET  /v1/jobs/{id}/stream    NDJSON progress snapshots, then the final
//	                             status line
//	POST /v1/jobs/{id}/cancel    abort the job's execution
//	GET  /v1/stats               store/runner/limiter/fingerprint counters
//	GET  /v1/healthz             {"status": "ok" | "draining"}
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

// apiError is the JSON error body. Retriable errors (drain, full queue,
// rate limit) tell the client the same request can succeed later.
type apiError struct {
	Error     string `json:"error"`
	Retriable bool   `json:"retriable,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, retriable bool, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...), Retriable: retriable})
}

// clientKey identifies the caller for rate limiting: the X-UVE-Client
// header when present (lets multiplexed test clients separate), else the
// remote host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-UVE-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// jobJSON is the wire shape of one job's status. Report embeds the stored
// payload verbatim (json.RawMessage round-trips byte-exactly).
type jobJSON struct {
	ID        string          `json:"id"`
	State     JobState        `json:"state"`
	FromStore bool            `json:"from_store,omitempty"`
	Error     string          `json:"error,omitempty"`
	Retriable bool            `json:"retriable,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
}

func toJSON(st JobStatus) jobJSON {
	return jobJSON{
		ID: st.ID, State: st.State, FromStore: st.FromStore,
		Error: st.Error, Retriable: st.Retriable, Report: st.Payload,
	}
}

// submitBody accepts either a single JobSpec or a {"jobs": [...]} batch.
type submitBody struct {
	Jobs []JobSpec `json:"jobs"`
}

// Request bounds, checked before any spec is validated. The largest batch
// in use, the benchmark's cold fill, has 114 specs.
const (
	maxBodyBytes = 1 << 20
	maxBatch     = 1024
)

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.limit.allow(clientKey(r), time.Now()) {
		writeErr(w, http.StatusTooManyRequests, true, "rate limit exceeded")
		return
	}
	if s.Draining() {
		writeErr(w, http.StatusServiceUnavailable, true, "server draining")
		return
	}
	var raw json.RawMessage
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&raw); err != nil {
		status := http.StatusBadRequest
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, false, "bad request body: %v", err)
		return
	}
	var body submitBody
	if err := json.Unmarshal(raw, &body); err != nil || body.Jobs == nil {
		// Not a batch envelope: try a single spec.
		var spec JobSpec
		if err := json.Unmarshal(raw, &spec); err != nil || spec.Kernel == "" {
			writeErr(w, http.StatusBadRequest, false, "body must be a job spec or {\"jobs\": [...]}")
			return
		}
		body.Jobs = []JobSpec{spec}
	}
	if len(body.Jobs) == 0 {
		writeErr(w, http.StatusBadRequest, false, "empty job list")
		return
	}
	if len(body.Jobs) > maxBatch {
		writeErr(w, http.StatusBadRequest, false, "batch of %d jobs, over %d", len(body.Jobs), maxBatch)
		return
	}

	// Validate the whole batch before registering any of it.
	ps := make([]prepared, len(body.Jobs))
	for i, spec := range body.Jobs {
		var err error
		if ps[i], err = s.prepare(spec); err != nil {
			writeErr(w, http.StatusBadRequest, false, "job %d: %v", i, err)
			return
		}
	}
	ids := make([]string, len(ps))
	execs := make([]*execution, len(ps))
	for i, p := range ps {
		ids[i], execs[i] = s.register(p)
	}

	wait := r.URL.Query().Get("wait") != ""
	cancelOnDisconnect := r.URL.Query().Get("cancel_on_disconnect") != ""
	out := make([]jobJSON, len(ids))
	for i, e := range execs {
		if wait {
			select {
			case <-e.done:
			case <-r.Context().Done():
				if cancelOnDisconnect {
					// The waiting client is gone and asked for its jobs to
					// die with it: cancel and report the final state.
					e.cancel()
					<-e.done
				}
			}
		}
		out[i] = toJSON(e.status(ids[i]))
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobJSON `json:"jobs"`
	}{out})
}

// requested resolves the request's job ID, answering 410 Gone for an evicted
// job and 404 for one never issued; e is nil once it has answered.
func (s *Server) requested(w http.ResponseWriter, r *http.Request) (id string, e *execution) {
	id = r.PathValue("id")
	e, gone := s.lookup(id)
	switch {
	case gone:
		writeErr(w, http.StatusGone, false, "job %q was evicted", id)
	case e == nil:
		writeErr(w, http.StatusNotFound, false, "unknown job %q", id)
	}
	return id, e
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if id, e := s.requested(w, r); e != nil {
		writeJSON(w, http.StatusOK, toJSON(e.status(id)))
	}
}

// handleReport serves the raw stored payload — the byte-identity surface.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id, e := s.requested(w, r)
	if e == nil {
		return
	}
	st := e.status(id)
	if st.State != StateDone {
		writeErr(w, http.StatusConflict, st.State == StateQueued || st.State == StateRunning,
			"job %s is %s, not done", st.ID, st.State)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(st.Payload)
}

// handleStream emits NDJSON: progress snapshots at the polling interval
// (traced jobs only — untraced jobs go straight to the final line), then
// one final line with the settled status and report.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	id, e := s.requested(w, r)
	if e == nil {
		return
	}

	interval := 50 * time.Millisecond
	if ms := r.URL.Query().Get("interval_ms"); ms != "" {
		var v int64
		if _, err := fmt.Sscanf(ms, "%d", &v); err == nil && v > 0 {
			interval = time.Duration(v) * time.Millisecond
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	type streamLine struct {
		Progress *Snapshot `json:"progress,omitempty"`
		Final    *jobJSON  `json:"final,omitempty"`
	}
	emit := func(l streamLine) {
		_ = enc.Encode(l)
		if flusher != nil {
			flusher.Flush()
		}
	}

	ticker := time.NewTicker(interval)
	defer ticker.Stop()
poll:
	for {
		select {
		case <-e.done:
			break poll
		case <-r.Context().Done():
			if r.URL.Query().Get("cancel_on_disconnect") != "" {
				e.cancel()
			}
			return
		case <-ticker.C:
			if e.progress != nil {
				snap := e.progress.snapshot()
				emit(streamLine{Progress: &snap})
			}
		}
	}
	fin := toJSON(e.status(id))
	emit(streamLine{Final: &fin})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if id, e := s.requested(w, r); e != nil {
		e.cancel()
		writeJSON(w, http.StatusOK, toJSON(e.status(id)))
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{status})
}
