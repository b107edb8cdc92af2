package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	rca "github.com/climate-rca/rca"
)

// serviceBoots is how many times a service run starts rcad to sample
// its set-up time; the last boot takes the load.
const serviceBoots = 5

// rcad is one running rcad child on loopback with its own temporary
// artifact store.
type rcad struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	store string
	exit  chan error // receives Wait's result once
	log   *os.File
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startRcad boots rcad on the CI corpus with nproc workers, each
// investigation running single-threaded (-parallel 1) so that the
// concurrent jobs use the cores without oversubscribing them, and waits
// until /healthz answers — rcad warms the control-ensemble fingerprint
// before it listens, so that is set-up complete.
func startRcad(bin, work string, nproc int, client *http.Client) (*rcad, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	store, err := os.MkdirTemp(work, "rcad-store-")
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(store + ".log")
	if err != nil {
		os.RemoveAll(store)
		return nil, 0, err
	}
	r := &rcad{base: fmt.Sprintf("http://127.0.0.1:%d", port), store: store, exit: make(chan error, 1), log: logf}
	r.cmd = exec.Command(bin,
		"-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-aux", strconv.Itoa(ciAux), "-seed", strconv.Itoa(ciSeed),
		"-ensemble", strconv.Itoa(ciEnsemble), "-runs", strconv.Itoa(ciExp),
		"-workers", strconv.Itoa(nproc), "-parallel", "1",
		"-queue", "256", "-outcomes", "100000",
		"-store", store)
	r.cmd.Stdout, r.cmd.Stderr = logf, logf
	// Should the harness itself be killed, take rcad down with it.
	r.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := r.cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(store)
		return nil, 0, err
	}
	go func() { r.exit <- r.cmd.Wait() }()
	for deadline := start.Add(90 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		select {
		case err := <-r.exit:
			r.exit <- err
			r.stop()
			return nil, 0, fmt.Errorf("rcad exited during start-up: %v (log %s)", err, logf.Name())
		default:
		}
		resp, err := client.Get(r.base + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return r, time.Since(start), nil
		}
	}
	r.stop()
	return nil, 0, errors.New("rcad did not answer /healthz within 90s")
}

// stop terminates rcad, waits for it to exit and removes its store.
func (r *rcad) stop() {
	_ = r.cmd.Process.Signal(syscall.SIGTERM) // it may already have exited
	select {
	case <-r.exit:
	case <-time.After(10 * time.Second):
		_ = r.cmd.Process.Kill()
		<-r.exit
	}
	r.log.Close()
	os.RemoveAll(r.store)
	os.Remove(r.log.Name())
}

// procCPU is a child's user plus system CPU time, read from
// /proc/<pid>/stat in clock ticks of 1/100 s (USER_HZ on Linux).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// procPeakRSSMB is a child's peak resident set size (VmHWM) in MiB.
func procPeakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// outcome is the part of a finished rcad job the benchmark checks.
type outcome struct {
	Text       string `json:"text"`
	BugLocated bool   `json:"bugLocated"`
}

// jobReply is the part of rcad's job JSON the benchmark reads.
type jobReply struct {
	State   string   `json:"state"`
	Error   string   `json:"error"`
	Outcome *outcome `json:"outcome"`
}

// submit posts one job and waits for it. A transport error, a non-200
// status (a 503 rejection included) or a job that did not finish is an
// error: failed operations are counted, never retried.
func submit(client *http.Client, base, body string) (*outcome, error) {
	resp, err := client.Post(base+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	var j jobReply
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, err
	}
	if j.State != "done" || j.Outcome == nil {
		return nil, fmt.Errorf("job %s: %s", j.State, j.Error)
	}
	return j.Outcome, nil
}

// serviceLoad is what the closed loop of clients observed.
type serviceLoad struct {
	mu    sync.Mutex
	hit   []float64 // repeat-catalog latencies
	miss  []float64 // novel-job latencies
	dup   []float64 // duplicate-group job latencies
	jobs  int
	novel map[string]bool // distinct novel scenarios sent
}

func (l *serviceLoad) add(kind string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.jobs++
	switch kind {
	case kindRepeat:
		l.hit = append(l.hit, d.Seconds())
	case kindNovel:
		l.miss = append(l.miss, d.Seconds())
	case kindDup:
		l.dup = append(l.dup, d.Seconds())
	}
}

// runService is the service workload: rcad as a child process under a
// closed loop of nproc clients sending the seeded request stream.
func runService(ctx context.Context, e *env, bin, work string) (measured, error) {
	client := &http.Client{
		Timeout:   150 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4 * e.nproc},
	}
	var srv *rcad
	for i := 0; i < serviceBoots; i++ {
		r, d, err := startRcad(bin, work, e.nproc, client)
		if err != nil {
			return nil, err
		}
		e.setup = append(e.setup, d.Seconds())
		if i < serviceBoots-1 {
			r.stop()
			continue
		}
		srv = r
	}
	defer srv.stop()

	// Investigate the catalog once so that repeats are store reads.
	for _, name := range catalogNames() {
		key := "catalog/" + name
		o, err := submit(client, srv.base, fmt.Sprintf(`{"experiment": %q}`, name))
		if err != nil {
			e.chk.fail(key, err)
			continue
		}
		e.chk.checkFirst(key, o.Text, o.BugLocated)
	}

	before, err := scrape(client, srv.base)
	if err != nil {
		return nil, err
	}
	pid := srv.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	load := &serviceLoad{novel: map[string]bool{}}
	var next atomic.Int64
	var queueMax atomic.Int64
	start := time.Now()
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	if e.tr != nil {
		// Sample the queue-depth gauge while the load runs.
		go func() {
			defer close(samplerDone)
			for {
				select {
				case <-stopSampler:
					return
				case <-time.After(50 * time.Millisecond):
				}
				if m, err := scrape(client, srv.base); err == nil && int64(m["rcad_queue_depth"]) > queueMax.Load() {
					queueMax.Store(int64(m["rcad_queue_depth"]))
				}
			}
		}()
	} else {
		close(samplerDone)
	}
	// rcad keeps per-scenario state, so its memory grows with the jobs
	// it has run; peak RSS is read once the first serviceRSSItems items
	// of the stream have completed, a fixed amount of work, rather than
	// at the end of a run whose length in jobs depends on the machine.
	var done atomic.Int64
	var rss float64
	var rssErr error
	var wg sync.WaitGroup
	for c := 0; c < e.nproc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// The first serviceRSSItems items are always sent whole;
			// the first block's outputs are the ones every reference
			// recording holds.
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= serviceRSSItems && time.Since(start) >= e.seconds {
					return
				}
				e.send(client, srv.base, i, load)
				if done.Add(1) == serviceRSSItems {
					rss, rssErr = procPeakRSSMB(srv.cmd.Process.Pid)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopSampler)
	<-samplerDone
	if rssErr != nil {
		return nil, rssErr
	}

	after, err := scrape(client, srv.base)
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	d := after.delta(before)
	// executions must equal the distinct novel scenarios sent: each runs
	// the pipeline exactly once, whatever the duplicates did.
	if int(d["rcad_pipeline_executions_total"]) != len(load.novel) {
		e.chk.fail("serve.executions", fmt.Errorf("%v pipeline executions for %d distinct novel scenarios",
			d["rcad_pipeline_executions_total"], len(load.novel)))
	}
	if e.tr == nil {
		// Latency is that of novel jobs alone, so it depends neither on
		// the request mix nor on the duplicate fan-out.
		return measured{
			"peak_rss_mb":  rss,
			"op_p50_s":     percentile(load.miss, 50),
			"op_p90_s":     percentile(load.miss, 90),
			"ops_per_s":    float64(load.jobs) / elapsed.Seconds(),
			"cpu_per_op_s": (cpu1 - cpu0).Seconds() / d["rcad_pipeline_executions_total"],
		}, nil
	}
	m := measured{
		"serve.job_hit_p50_ms":    1000 * percentile(load.hit, 50),
		"serve.job_hit_p90_ms":    1000 * percentile(load.hit, 90),
		"serve.job_dup_p50_s":     percentile(load.dup, 50),
		"serve.executions":        d["rcad_pipeline_executions_total"],
		"serve.deduped":           d["rcad_jobs_deduped_total"],
		"serve.from_store":        d["rcad_jobs_from_store_total"],
		"serve.rejected":          d["rcad_jobs_rejected_total"],
		"serve.queue_depth_max":   float64(queueMax.Load()),
		"artifact.hits":           d["rcad_artifact_store_hits_total"],
		"artifact.misses":         d["rcad_artifact_store_misses_total"],
		"artifact.bytes":          d["rcad_artifact_store_bytes"],
		"lasso.fits":              d["rcad_lasso_fits_total"],
		"lasso.iters":             d["rcad_lasso_fit_iterations_total"],
		"bytecode.compile_hits":   d["rcad_compile_cache_hits_total"],
		"bytecode.compile_misses": d["rcad_compile_cache_misses_total"],
		// trace.coverage_frac and trace.overhead_frac read 0: rcad has no
		// stage spans, and client-side job spans cost nothing to take.
	}
	if sub := d["rcad_jobs_submitted_total"]; sub > 0 {
		m["serve.hit_ratio"] = d["rcad_jobs_from_store_total"] / sub
	}
	if m["lasso.fits"] > 0 {
		m["lasso.iters_per_fit"] = m["lasso.iters"] / m["lasso.fits"]
	}
	return m, nil
}

// serviceRSSItems is how many stream items complete before rcad's peak
// RSS is read: five blocks, 75 pipeline executions.
const serviceRSSItems = 5 * serviceBlock

// dupCopies is how many identical copies of a duplicate request are
// sent at once.
const dupCopies = 4

// send sends stream item i and records it, each copy of it in a span of
// its own in a traced run.
func (e *env) send(client *http.Client, base string, i int, load *serviceLoad) {
	req := serviceRequest(e.seed, i)
	check := e.chk.check
	if i < serviceBlock {
		check = e.chk.checkFirst
	}
	copies := 1
	if req.Kind == kindDup {
		copies = dupCopies
	}
	if req.Kind != kindRepeat {
		load.mu.Lock()
		load.novel[req.Body] = true
		load.mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < copies; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := e.tr.begin(opName("job", i, c), "serve.job."+req.Kind, 0)
			t := time.Now()
			o, err := submit(client, base, req.Body)
			d := time.Since(t)
			e.tr.end(id)
			if err != nil {
				e.chk.fail(req.Key, err)
				return
			}
			// A novel perturbation has no known defect site to locate.
			check(req.Key, o.Text, req.Kind != kindRepeat || o.BugLocated)
			load.add(req.Kind, d)
		}()
	}
	wg.Wait()
}

func catalogNames() []string {
	var names []string
	for _, sc := range rca.AllExperiments() {
		names = append(names, sc.Name())
	}
	return names
}
