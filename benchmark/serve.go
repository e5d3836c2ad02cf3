package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/kernels"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
)

// serveSetup is serve-warm's running service and request specs.
type serveSetup struct {
	specs  []serve.JobSpec
	labels []string
	addr   string
	dir    string // store directory
	// first is the first report seen for each label, as embedded in the
	// reply; every later answer must be byte-identical to it.
	first   map[string][]byte
	outs    map[string]outcome
	clients [workers]*http.Client
}

// servePasses is serve-warm's minimum passes per window: 40 × 114 = 4560
// requests, about 3 s on the 2-core host. The daemon keeps every settled
// job, so its RSS grows with each request; the RSS median is taken over
// these requests only, and they support a p99 with 45 samples beyond it.
const servePasses = 40

// serveWarm starts uveserve (in-process in smoke mode), fills its store with
// every kernel × variant × {cycle, functional} at -scale 4 through one cold
// batch request, and lists one single-spec request per cell. Every timed
// answer must be a store hit, byte-identical to the cold answer.
func serveWarm(c *config) (*workload, error) {
	o := &bench.Options{Scale: c.scale(4)}
	ss := &serveSetup{first: map[string][]byte{}, outs: map[string]outcome{}}
	for _, k := range kernels.All {
		for _, v := range []string{"uve", "sve", "neon"} {
			for _, fid := range []string{"cycle", "functional"} {
				ss.specs = append(ss.specs, serve.JobSpec{Kernel: k.ID, Variant: v, Size: bench.SizeFor(k, o), Fidelity: fid})
				ss.labels = append(ss.labels, fmt.Sprintf("%s/%s/%s", k.ID, v, fid))
			}
		}
	}
	for i := range ss.clients {
		// One persistent connection per client.
		ss.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	dir, err := os.MkdirTemp(c.runDir(), "serve-")
	if err != nil {
		return nil, err
	}
	ss.dir = filepath.Join(dir, "store")
	addr, pid, stop, err := startService(c, dir, ss.dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ss.addr = addr
	w := &workload{name: "serve-warm", minPasses: servePasses, rssPID: pid, serve: ss, close: func() {
		for _, cl := range ss.clients {
			cl.CloseIdleConnections()
		}
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "uvebenchmark: stopping uveserve:", err)
		}
		os.RemoveAll(dir)
	}}

	body, err := json.Marshal(struct {
		Jobs []serve.JobSpec `json:"jobs"`
	}{ss.specs})
	if err != nil {
		w.shutdown()
		return nil, err
	}
	rep, _, err := post(ss.clients[0], addr, body)
	if err == nil && len(rep.Jobs) != len(ss.specs) {
		err = fmt.Errorf("cold fill: %d answers for %d specs", len(rep.Jobs), len(ss.specs))
	}
	if err != nil {
		w.shutdown()
		return nil, err
	}
	for i, a := range rep.Jobs {
		out, err := a.outcome()
		if err != nil {
			w.shutdown()
			return nil, fmt.Errorf("cold fill %s: %w", ss.labels[i], err)
		}
		ss.first[ss.labels[i]] = a.Report
		ss.outs[ss.labels[i]] = out
	}

	for i, spec := range ss.specs {
		label := ss.labels[i]
		body, err := json.Marshal(spec)
		if err != nil {
			w.shutdown()
			return nil, err
		}
		w.jobs = append(w.jobs, &job{id: label, run: func(x *exec) (result, error) {
			s := x.tr.begin("serve.http", x.jobNo, -1)
			rep, lat, err := post(ss.clients[x.worker], ss.addr, body)
			x.tr.end(s)
			if err != nil {
				return result{}, err
			}
			if len(rep.Jobs) != 1 {
				return result{}, fmt.Errorf("%s: %d answers to one spec", label, len(rep.Jobs))
			}
			switch a := rep.Jobs[0]; {
			case a.State != string(serve.StateDone):
				return result{}, fmt.Errorf("%s: job %s is %s: %s", label, a.ID, a.State, a.Error)
			case !a.FromStore:
				return result{}, fmt.Errorf("%s: answer was simulated, not a store hit", label)
			case !bytes.Equal(a.Report, ss.first[label]):
				return result{}, fmt.Errorf("%s: report differs from the first answer", label)
			}
			return result{out: ss.outs[label], latency: lat}, nil
		}})
	}
	return w, nil
}

// answer is one job of a POST /v1/jobs reply.
type answer struct {
	ID        string          `json:"id"`
	State     string          `json:"state"`
	FromStore bool            `json:"from_store"`
	Error     string          `json:"error"`
	Report    json.RawMessage `json:"report"`
}

// outcome reads the simulated counts out of a done answer's report.
func (a *answer) outcome() (outcome, error) {
	if a.State != string(serve.StateDone) {
		return outcome{}, fmt.Errorf("job %s is %s: %s", a.ID, a.State, a.Error)
	}
	return reportOutcome(a.Report)
}

func reportOutcome(payload []byte) (outcome, error) {
	var doc struct {
		Serve struct {
			Result struct {
				Cycles    int64  `json:"cycles"`
				Committed uint64 `json:"committed"`
			} `json:"result"`
		} `json:"serve"`
	}
	if err := json.Unmarshal(payload, &doc); err != nil {
		return outcome{}, fmt.Errorf("report: %w", err)
	}
	h := fnv.New64a()
	h.Write(payload)
	return outcome{doc.Serve.Result.Cycles, doc.Serve.Result.Committed, h.Sum64()}, nil
}

// post sends one POST /v1/jobs?wait=1 and returns the decoded reply and the
// time from sending the request to reading the last byte of the answer.
func post(cl *http.Client, addr string, body []byte) (*struct{ Jobs []answer }, time.Duration, error) {
	t0 := time.Now()
	resp, err := cl.Post("http://"+addr+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, lat, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, lat, fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, bytes.TrimSpace(b))
	}
	var rep struct{ Jobs []answer }
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, lat, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	return &rep, lat, nil
}

// stats fetches the service's /v1/stats counters.
func (ss *serveSetup) stats() (serve.Stats, error) {
	var st serve.Stats
	resp, err := ss.clients[0].Get("http://" + ss.addr + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// startService starts the service under test with its store at storeDir:
// the uveserve daemon as a child process, or in smoke mode a serve.Server on
// a loopback listener in this process. It returns the listen address, the
// pid whose RSS to sample, and a stop function that waits for it to end.
func startService(c *config, dir, storeDir string) (addr string, pid int, stop func() error, err error) {
	if c.smoke {
		return startInProcess(storeDir)
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "uveserve.log"))
	if err != nil {
		return "", 0, nil, err
	}
	cmd := osexec.Command(filepath.Join(c.build, "uveserve"), "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-store", storeDir, "-j", strconv.Itoa(workers), "-queue", "256")
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return "", 0, nil, fmt.Errorf("start uveserve: %w", err)
	}
	done := make(chan struct{})
	var waitErr error
	go func() {
		waitErr = cmd.Wait()
		logf.Close()
		close(done)
	}()
	stop = func() error {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			_ = cmd.Process.Kill()
			<-done
		}
		return waitErr
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil {
			return string(b), cmd.Process.Pid, stop, nil
		}
		select {
		case <-done:
			return "", 0, nil, fmt.Errorf("uveserve exited before listening (%v); see %s", waitErr, logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			stop()
			return "", 0, nil, errors.New("uveserve did not start listening within 30 s")
		}
	}
}

// startInProcess serves the HTTP API from this process, for smoke runs that
// have no uveserve binary.
func startInProcess(storeDir string) (string, int, func() error, error) {
	st, err := store.Open(storeDir)
	if err != nil {
		return "", 0, nil, err
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: workers, QueueLen: 256})
	if err != nil {
		return "", 0, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return "", 0, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(ln)
	}()
	stop := func() error {
		srv.Close()
		err := hs.Shutdown(context.Background())
		<-done
		return err
	}
	return ln.Addr().String(), os.Getpid(), stop, nil
}

// inProcess builds the in-process replay of serve-warm's request sequence
// that the traced run profiles: each job is serve.Server.Submit+Wait, then
// bench.FingerprintJob and store.Get of the same spec, over the daemon's
// store. The daemon's own CPU time is in another process, which the
// benchmark's profile cannot see.
func (ss *serveSetup) inProcess() (*workload, error) {
	st, err := store.Open(ss.dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Store: st, Workers: workers, QueueLen: 256})
	if err != nil {
		return nil, err
	}
	w := &workload{name: "serve-warm/in-process", rssPID: os.Getpid(), close: srv.Close}
	for i, spec := range ss.specs {
		label := ss.labels[i]
		bj, err := benchJob(spec)
		if err != nil {
			srv.Close()
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		w.jobs = append(w.jobs, &job{id: label, run: func(x *exec) (result, error) {
			s := x.tr.begin("serve.submit", x.jobNo, -1)
			t0 := time.Now()
			id, err := srv.Submit(spec)
			var js serve.JobStatus
			if err == nil {
				js, _ = srv.Wait(context.Background(), id)
			}
			lat := time.Since(t0)
			x.tr.end(s)
			switch {
			case err != nil:
				return result{}, fmt.Errorf("%s: submit: %w", label, err)
			case js.State != serve.StateDone || !js.FromStore:
				return result{}, fmt.Errorf("%s: job %s is %s (from store: %v): %s", label, id, js.State, js.FromStore, js.Error)
			}
			s = x.tr.begin("bench.fingerprint", x.jobNo, -1)
			key, err := bench.FingerprintJob(bj)
			x.tr.end(s)
			if err != nil {
				return result{}, err
			}
			s = x.tr.begin("store.get", x.jobNo, -1)
			payload, hit, err := st.Get(key)
			x.tr.end(s)
			switch {
			case err != nil:
				return result{}, err
			case !hit:
				return result{}, fmt.Errorf("%s: store has no entry under the job's fingerprint", label)
			case !bytes.Equal(payload, js.Payload):
				return result{}, fmt.Errorf("%s: stored payload differs from the served one", label)
			}
			out, err := reportOutcome(payload)
			return result{out: out, latency: lat}, err
		}})
	}
	return w, nil
}

// benchJob is the bench.Job uveserve builds for a spec (kernel by ID, the
// variant's Table I machine, the requested fidelity).
func benchJob(spec serve.JobSpec) (bench.Job, error) {
	k := kernels.ByID(spec.Kernel)
	if k == nil {
		return bench.Job{}, fmt.Errorf("unknown kernel %q", spec.Kernel)
	}
	v, err := cliflags.Variant(spec.Variant)
	if err != nil {
		return bench.Job{}, err
	}
	o := sim.DefaultOptions(v)
	if o.Fidelity, err = sim.ParseFidelity(spec.Fidelity); err != nil {
		return bench.Job{}, err
	}
	return bench.Job{Kernel: k, Variant: v, Size: spec.Size, Opts: &o}, nil
}
