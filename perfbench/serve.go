package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/symprop/symprop"
	"github.com/symprop/symprop/internal/jobs"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/loadgen"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// serve-mix settings. Runners x job workers and the client's connections
// stay within nproc; the in-flight cap sheds arrivals (counted as failed)
// instead of letting a stalled server pile up goroutines.
const (
	serveJobWorkers  = 1
	serveCkptEvery   = 2
	serveMaxInFlight = 64
	serveRetryBudget = 8
	serveCheckSample = 16
)

// serveEnv is one in-process job server on a loopback listener, with its
// inputs and the benchmark's HTTP client.
type serveEnv struct {
	in        *serveInput
	spool     string
	m         *jobs.Manager
	srv       *http.Server
	served    chan error
	base      string
	client    *http.Client
	transport *http.Transport
}

func openServe(cfg runConfig, spool string) (*serveEnv, error) {
	in, err := newServeInput(cfg.seed, cfg.window)
	if err != nil {
		return nil, err
	}
	m, err := jobs.Open(jobs.Config{SpoolDir: spool, Runners: cfg.nproc / serveJobWorkers,
		JobWorkers: serveJobWorkers, MemoryBudget: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: cfg.nproc, MaxIdleConnsPerHost: cfg.nproc}
	e := &serveEnv{in: in, spool: spool, m: m,
		srv: &http.Server{Handler: jobs.NewServer(m)}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), transport: tr,
		client: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
	go func() { e.served <- e.srv.Serve(ln) }()
	return e, nil
}

// close stops the listener and drains the Manager, waiting for both.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	e.transport.CloseIdleConnections()
	if derr := e.m.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// jobRecord is one arrival's life as the client saw it.
type jobRecord struct {
	due      time.Time
	lag      time.Duration
	submitAt time.Time
	submit   time.Duration
	rejected int
	id       string
	notified time.Time
	fetch    time.Duration
	done     time.Time
	factor   []byte
	err      error
	wrong    bool
}

var errShed = errors.New("shed: in-flight cap reached")

func (e *serveEnv) post(spec []byte) (int, []byte, error) {
	resp, err := e.client.Post(e.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// runJob submits one arrival over HTTP (retrying 429/503), waits for its
// terminal event through Manager.Subscribe, and fetches the factor.
func (e *serveEnv) runJob(r *jobRecord, spec []byte, tr *Tracer) {
	for attempt := 0; ; attempt++ {
		start := time.Now()
		code, body, err := e.post(spec)
		r.submit = time.Since(start)
		if err != nil {
			r.err = fmt.Errorf("submit: %w", err)
			return
		}
		if code == http.StatusAccepted {
			var accepted struct{ ID string }
			if err := json.Unmarshal(body, &accepted); err != nil || accepted.ID == "" {
				r.err = fmt.Errorf("submit: bad response %q", body)
				return
			}
			r.id, r.submitAt = accepted.ID, start
			tr.Span("jobs", "submit", r.id, start, start.Add(r.submit))
			break
		}
		if (code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable) && attempt < serveRetryBudget {
			r.rejected++
			time.Sleep(time.Duration(10<<attempt) * time.Millisecond)
			continue
		}
		r.err = fmt.Errorf("submit: HTTP %d: %s", code, strings.TrimSpace(string(body)))
		return
	}

	events, detach, err := e.m.Subscribe(r.id)
	if err != nil {
		r.err = fmt.Errorf("subscribe %s: %w", r.id, err)
		return
	}
	var state jobs.State
	for ev := range events {
		if ev.Type == "state" {
			state = ev.State
		}
	}
	detach()
	r.notified = time.Now()
	if !state.Terminal() {
		// The terminal event was dropped; the channel closing still marks
		// the job terminal, so one lookup reads its state.
		st, err := e.m.Status(r.id)
		if err != nil {
			r.err = err
			return
		}
		state = st.State
	}
	if state != jobs.StateSucceeded {
		r.err = fmt.Errorf("job %s ended %s", r.id, state)
		return
	}

	var code int
	r.fetch, err = tr.Time("jobs", "result", r.id, "", func() error {
		resp, err := e.client.Get(e.base + "/v1/jobs/" + r.id + "/result")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		code = resp.StatusCode
		r.factor, err = io.ReadAll(resp.Body)
		return err
	})
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("HTTP %d", code)
	}
	if err != nil {
		r.err = fmt.Errorf("result %s: %w", r.id, err)
		return
	}
	r.done = time.Now()
}

// runServe measures serve-mix: open-loop Poisson arrivals from two
// alternating tenants against an in-process jobs.Manager over HTTP.
func runServe(cfg runConfig) (*result, error) {
	res := newResult()
	// Every set-up opens the same spool, and the spool stays on disk after
	// the run: deleting a run's thousands of job files makes the disk
	// discard their blocks, and on a VM disk that slowed the fsyncs of the
	// runs that followed for minutes.
	spool, err := os.MkdirTemp(cfg.outDir, "spool-")
	if err != nil {
		return nil, err
	}
	// Start from a flushed disk: the spool's fsyncs are part of every job.
	syscall.Sync()
	var setups []float64
	var env *serveEnv
	for env == nil {
		runtime.GC()
		t := time.Now()
		e, err := openServe(cfg, spool)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if len(setups) >= setupReps && sum(setups) >= setupMinSeconds {
			env = e
		} else if err := e.close(); err != nil {
			return nil, err
		}
	}
	defer func() {
		if err := env.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: closing the job server:", err)
		}
	}()
	var counters *obs.Counters
	if cfg.tracer != nil {
		counters = obs.NewCounters()
		obs.SetGlobalCounters(counters)
	}

	sched := env.in.schedule
	recs := make([]jobRecord, len(sched))
	inFlight := make(chan struct{}, serveMaxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		r := &recs[i]
		r.due = start.Add(a.At)
		// The spec is encoded while waiting for the arrival, off the
		// job's clock and out of set-up.
		sh := env.in.mix.Shapes[a.Shape]
		spec, err := json.Marshal(jobs.Spec{Tenant: serveTenants[i%2], Tensor: env.in.tensors[a.Shape],
			Rank: sh.Rank, MaxIters: sh.MaxIters, Seed: a.Seed, Workers: sh.Workers,
			CheckpointEvery: serveCkptEvery})
		if err != nil {
			return nil, err
		}
		time.Sleep(time.Until(r.due))
		r.lag = time.Since(r.due)
		select {
		case inFlight <- struct{}{}:
		default:
			r.err = errShed
			continue
		}
		var tr *Tracer
		if tracedArrival(i) {
			tr = cfg.tracer
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inFlight }()
			env.runJob(r, spec, tr)
		}()
	}
	wg.Wait()
	obs.SetGlobalCounters(nil)
	window := time.Since(start)
	if window < cfg.window {
		window = cfg.window
	}

	sample := checkServeSample(cfg, env, recs, res)
	var lat, tracedLat, plainLat, lags []float64
	ok := 0
	for i := range recs {
		r := &recs[i]
		res.attempted++
		lags = append(lags, ms(r.lag))
		if r.err != nil {
			if r.wrong {
				res.wrong(r.err)
			} else {
				res.fail(r.err)
			}
			continue
		}
		ok++
		l := ms(r.done.Sub(r.due))
		lat = append(lat, l)
		if tracedArrival(i) {
			tracedLat = append(tracedLat, l)
		} else {
			plainLat = append(plainLat, l)
		}
	}
	jobsPerS := float64(ok) / window.Seconds()
	beyond := len(lat) - int(math.Ceil(0.99*float64(len(lat))))

	if cfg.tracer == nil {
		res.metric("setup_s", median(setups), "s")
		res.metric("op_p50_ms", median(lat), "ms")
		res.metric("op_p90_ms", percentile(lat, 90), "ms")
		res.metric("ops_per_s", jobsPerS, "1/s")
		res.metric("peak_rss_mb", peakRSSMB(), "MB")
		res.info("job_p50_ms %.3f ms, job_p90_ms %.3f ms, job_p99_ms %.3f ms (%d jobs, %d beyond p99), jobs_per_s %.2f 1/s at %.0f jobs/s offered, setup_s %.4f s, failed_ratio %g (%d/%d)",
			median(lat), percentile(lat, 90), percentile(lat, 99), len(lat), beyond, jobsPerS, serveRate, median(setups),
			ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
		return res, nil
	}

	if err := serveLayers(cfg, env, recs, sample, counters, window, res); err != nil {
		return nil, err
	}
	res.metric("trace.overhead_ratio", ratio(median(tracedLat), median(plainLat))-1, "ratio")
	res.metric("loadgen.lag_ms_p99", percentile(lags, 99), "ms")
	return res, nil
}

// tracedArrival picks the arrivals a traced run traces: alternate pairs,
// so both tenants (which alternate per arrival) are traced equally and the
// untraced half measures the tracing's overhead under the same load.
func tracedArrival(i int) bool { return i/2%2 == 0 }

// checkServeSample checks a seeded sample of succeeded jobs: the fetched
// factor must parse, be orthonormal, and equal the factor of the same job
// run in-process through symprop.Decompose, and the server's relative
// error must equal the in-process one. It returns the in-process runs.
func checkServeSample(cfg runConfig, env *serveEnv, recs []jobRecord, res *result) []tracedCall {
	var done []int
	for i := range recs {
		if recs[i].err == nil {
			done = append(done, i)
		}
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	rng.Shuffle(len(done), func(a, b int) { done[a], done[b] = done[b], done[a] })
	if len(done) > serveCheckSample {
		done = done[:serveCheckSample]
	}
	var calls []tracedCall
	for _, i := range done {
		r := &recs[i]
		a := env.in.schedule[i]
		c, err := checkServeJob(env, r, a, cfg.tracer)
		if err != nil {
			r.err, r.wrong = err, true
			continue
		}
		calls = append(calls, c)
	}
	res.info("checked %d sampled jobs against in-process decompositions", len(done))
	return calls
}

func checkServeJob(env *serveEnv, r *jobRecord, a loadgen.Arrival, tr *Tracer) (tracedCall, error) {
	sh := env.in.mix.Shapes[a.Shape]
	u, err := parseFactor(r.factor)
	if err != nil {
		return tracedCall{}, fmt.Errorf("job %s factor: %w", r.id, err)
	}
	if e := linalg.OrthonormalityError(u); !(e <= 1e-8) {
		return tracedCall{}, fmt.Errorf("job %s factor not orthonormal: max |UᵀU-I| = %g", r.id, e)
	}
	x, err := spsym.ReadFrom(strings.NewReader(env.in.tensors[a.Shape]))
	if err != nil {
		return tracedCall{}, err
	}
	workers := sh.Workers
	if workers == 0 {
		workers = serveJobWorkers
	}
	c, err := observedDecompose(x, symprop.Options{Rank: sh.Rank, MaxIters: sh.MaxIters, Seed: a.Seed,
		Workers: workers, MemoryBudget: -1}, tr, r.id)
	if err != nil {
		return tracedCall{}, fmt.Errorf("job %s in-process reference: %w", r.id, err)
	}
	if u.Rows != c.res.U.Rows || u.Cols != c.res.U.Cols || linalg.MaxAbsDiff(u, c.res.U) > 1e-12 {
		return tracedCall{}, fmt.Errorf("job %s factor differs from the in-process run", r.id)
	}
	st, err := env.m.Status(r.id)
	if err != nil {
		return tracedCall{}, err
	}
	if want := c.res.FinalRelError(); !(math.Abs(st.RelError-want) <= 1e-12) {
		return tracedCall{}, fmt.Errorf("job %s relative error %.15g, in-process %.15g", r.id, st.RelError, want)
	}
	return c, nil
}

// parseFactor reads the result endpoint's text matrix: a "% symprop
// factor matrix R x C" header, then one row per line.
func parseFactor(b []byte) (*linalg.Matrix, error) {
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("empty factor")
	}
	var rows, cols int
	if _, err := fmt.Sscanf(sc.Text(), "%% symprop factor matrix %d x %d", &rows, &cols); err != nil {
		return nil, fmt.Errorf("header %q: %w", sc.Text(), err)
	}
	u := linalg.NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		if !sc.Scan() {
			return nil, fmt.Errorf("factor has %d of %d rows", i, rows)
		}
		f := strings.Fields(sc.Text())
		if len(f) != cols {
			return nil, fmt.Errorf("row %d has %d of %d columns", i, len(f), cols)
		}
		for k, s := range f {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, fmt.Errorf("row %d: %w", i, err)
			}
			u.Set(i, k, v)
		}
	}
	return u, sc.Err()
}

// serveLayers reports serve-mix's per-layer split: one span per job from
// its Status timestamps (ms resolution) and the client's own timings, the
// server's kernel plan metrics, and a replay of each shape's sweep calls.
func serveLayers(cfg runConfig, env *serveEnv, recs []jobRecord, sample []tracedCall,
	counters *obs.Counters, window time.Duration, res *result) error {
	var submit, fetch, queue, run, notify, unattributed []float64
	waits := map[string][]float64{}
	rejected := 0
	for i := range recs {
		r := &recs[i]
		rejected += r.rejected
		if r.err != nil {
			continue
		}
		st, err := env.m.Status(r.id)
		if err != nil {
			return err
		}
		enq, started, fin := time.UnixMilli(st.EnqueuedAt), time.UnixMilli(st.StartedAt), time.UnixMilli(st.FinishedAt)
		cfg.tracer.Span("jobs", "queue", r.id, enq, started)
		cfg.tracer.Span("jobs", "run", r.id, started, fin)
		cfg.tracer.Span("jobs", "notify", r.id, fin, r.notified)
		submit = append(submit, ms(r.submit))
		fetch = append(fetch, ms(r.fetch))
		q, ru, n := ms(started.Sub(enq)), ms(fin.Sub(started)), ms(r.notified.Sub(fin))
		queue = append(queue, q)
		run = append(run, ru)
		notify = append(notify, n)
		waits[st.Tenant] = append(waits[st.Tenant], q)
		covered := unionMs([][2]time.Time{{r.submitAt, r.submitAt.Add(r.submit)}, {enq, started},
			{started, fin}, {fin, r.notified}, {r.done.Add(-r.fetch), r.done}})
		unattributed = append(unattributed, 1-ratio(covered, ms(r.done.Sub(r.due))))
	}
	res.metric("jobs.submit_ms_p50", median(submit), "ms")
	res.metric("jobs.submit_ms_p99", percentile(submit, 99), "ms")
	res.metric("jobs.run_ms_p50", median(run), "ms")
	res.metric("jobs.result_fetch_ms_p50", median(fetch), "ms")
	res.metric("jobs.queue_wait_ms_p99", percentile(queue, 99), "ms")
	res.metric("jobs.notify_ms_p99", percentile(notify, 99), "ms")
	res.metric("jobs.tenant_wait_skew", math.Abs(mean(waits[serveTenants[0]])-mean(waits[serveTenants[1]])), "ms")
	res.metric("jobs.rejected", float64(rejected), "count")
	res.metric("jobs.retries", float64(env.m.Counters().Value("jobs.retries")), "count")
	res.metric("trace.unattributed_ratio", median(unattributed), "ratio")

	kb, n, err := spoolKBPerJob(env.spool)
	if err != nil {
		return err
	}
	res.metric("jobs.spool_kb_per_job", kb, "KB")

	// The in-process reference runs of the checked sample stand in for the
	// traced Decompose calls of the decompose workloads.
	tracedLayers(res, sample, serveJobWorkers)
	if err := timeCheckpointSave(res, sample, cfg.outDir); err != nil {
		return err
	}
	// Kernel time as the server saw it, from its own plan metrics.
	var busy, maxBusy, allBusy, calls int64
	for _, pm := range env.m.Metrics().Snapshot() {
		allBusy += pm.BusyNs
		if strings.HasPrefix(pm.Name, "s3ttmc.") {
			busy += pm.BusyNs
			maxBusy += pm.MaxBusyNs
			calls += pm.Invocations
		}
	}
	res.metric("kernels.s3ttmc_busy_ms", ratio(float64(busy), float64(calls))/1e6, "ms")
	res.metric("kernels.s3ttmc_imbalance", ratio(float64(maxBusy), float64(busy)), "ratio")
	res.metric("kernels.cpu_share", ratio(float64(allBusy), float64(window)*float64(cfg.nproc)), "ratio")

	// Replay each shape's sweep, weighted by its share of the arrivals.
	counts := make([]float64, len(env.in.mix.Shapes))
	for _, a := range env.in.schedule {
		counts[a.Shape]++
	}
	var reps []*replay
	for s, t := range env.in.tensors {
		x, err := spsym.ReadFrom(strings.NewReader(t))
		if err != nil {
			return err
		}
		rp, err := replaySweep(x, env.in.mix.Shapes[s].Rank, symprop.HOQRI, serveJobWorkers, cfg.seed, cfg.tracer)
		if err != nil {
			return err
		}
		reps = append(reps, rp)
	}
	combineReplays(reps, counts).report(res)
	// Fusion misses the server's own kernel calls recorded.
	res.metric("kernels.fusion_miss", ratio(float64(sumPrefix(counters.Snapshot(), "fusion.miss")), float64(calls)), "count")
	res.info("traced %d jobs over %d spool directories; kernel busy %.1f%% of %d CPUs over %.1f s",
		len(submit), n, 100*ratio(float64(allBusy), float64(window)*float64(cfg.nproc)), cfg.nproc, window.Seconds())
	return nil
}

// unionMs is the total length of the union of the intervals, in ms.
func unionMs(iv [][2]time.Time) float64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var total time.Duration
	var end time.Time
	for _, v := range iv {
		if v[0].After(end) {
			end = v[0]
		}
		if v[1].After(end) {
			total += v[1].Sub(end)
			end = v[1]
		}
	}
	return ms(total)
}

// combineReplays weights each shape's replay by its arrival count.
func combineReplays(reps []*replay, weights []float64) *replay {
	out := &replay{ms: map[string]float64{}}
	total := sum(weights)
	var flopsMs, msW, sigs float64
	for i, rp := range reps {
		w := weights[i] / total
		for k, v := range rp.ms {
			out.ms[k] += w * v
		}
		out.sweepMs += w * rp.sweepMs
		out.fusionMiss += w * rp.fusionMiss
		flopsMs += w * rp.gflops * rp.ms["kernels.s3ttmc_ms"]
		msW += w * rp.ms["kernels.s3ttmc_ms"]
		sigs += w * float64(rp.signatures)
	}
	out.gflops = ratio(flopsMs, msW)
	out.signatures = int(math.Round(sigs))
	return out
}

// spoolKBPerJob sums the spool's file sizes per job directory.
func spoolKBPerJob(dir string) (float64, int, error) {
	var total int64
	jobDirs := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if filepath.Dir(path) == filepath.Clean(dir) {
				jobDirs++
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return ratio(float64(total)/1024, float64(jobDirs)), jobDirs, err
}

// zeroServeLayers reports the job-server layers as 0 on workloads that do
// not run the server.
func zeroServeLayers(res *result) {
	for _, k := range []string{"jobs.submit_ms_p50", "jobs.submit_ms_p99", "jobs.run_ms_p50", "jobs.result_fetch_ms_p50",
		"jobs.queue_wait_ms_p99", "jobs.notify_ms_p99", "jobs.tenant_wait_skew", "loadgen.lag_ms_p99"} {
		res.metric(k, 0, "ms")
	}
	res.metric("jobs.rejected", 0, "count")
	res.metric("jobs.retries", 0, "count")
	res.metric("jobs.spool_kb_per_job", 0, "KB")
}
