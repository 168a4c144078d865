package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/symprop/symprop"
	"github.com/symprop/symprop/internal/checkpoint"
	"github.com/symprop/symprop/internal/css"
	"github.com/symprop/symprop/internal/exec"
	"github.com/symprop/symprop/internal/kernels"
	"github.com/symprop/symprop/internal/linalg"
	"github.com/symprop/symprop/internal/obs"
	"github.com/symprop/symprop/internal/spsym"
)

// Set-up runs at least setupReps times and for at least setupMinSeconds in
// one benchmark run, each time from a collected heap; setup_s is the
// median. The time floor spreads the samples of a millisecond-long set-up
// over enough wall time that one moment's machine load does not set it.
const (
	setupReps       = 9
	setupMinSeconds = 0.25
)

func decomposeOptions(w decomposeWorkload, rank int, seed int64, workers int) symprop.Options {
	return symprop.Options{Rank: rank, Algorithm: w.algo, MaxIters: w.sweeps, Tol: 0,
		Seed: seed, Workers: workers, MemoryBudget: -1}
}

// runDecompose measures one decompose workload: a closed loop of
// back-to-back Decompose calls for the run's window. With a tracer it
// alternates traced and untraced calls, then replays one sweep's layer
// calls.
func runDecompose(cfg runConfig, w decomposeWorkload) (*result, error) {
	res := newResult()
	var x *spsym.Tensor
	var rank int
	var setups []float64
	for len(setups) < setupReps || sum(setups) < setupMinSeconds {
		runtime.GC()
		t := time.Now()
		var err error
		if x, rank, err = decomposeInput(w, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	ref, refSource, err := referenceFor(cfg.workload, w, x, rank, cfg.seed)
	if err != nil {
		return nil, err
	}
	res.info("input: %s quick stand-in, order %d, dim %d, %d IOU non-zeros, rank %d, %d sweeps; reference %s",
		w.dataset, x.Order, x.Dim, x.NNZ(), rank, w.sweeps, refSource)

	opts := decomposeOptions(w, rank, cfg.seed, cfg.nproc)
	check := func(r *symprop.Result, err error) bool {
		res.attempted++
		if err != nil {
			res.fail(err)
			return false
		}
		if err := checkDecomposition(r, ref); err != nil {
			res.wrong(err)
			return false
		}
		return true
	}
	// Warm-up call: untimed, but its output is checked like every other.
	check(symprop.Decompose(x, opts))

	var plain []float64
	var traced []tracedCall
	start := time.Now()
	for i := 0; time.Since(start) < cfg.window; i++ {
		// Every call starts from a collected heap, so its GC work and the
		// peak it reaches do not depend on the garbage the last call left.
		runtime.GC()
		if cfg.tracer != nil && i%2 == 1 {
			c, err := observedDecompose(x, opts, cfg.tracer, fmt.Sprintf("call-%d", i))
			if check(c.res, err) {
				traced = append(traced, c)
			}
			continue
		}
		t := time.Now()
		r, err := symprop.Decompose(x, opts)
		d := time.Since(t)
		if check(r, err) {
			plain = append(plain, ms(d))
		}
	}

	if cfg.tracer == nil {
		res.metric("setup_s", median(setups), "s")
		res.metric("op_p50_ms", median(plain), "ms")
		res.metric("op_p90_ms", percentile(plain, 90), "ms")
		res.metric("ops_per_s", ratio(float64(len(plain)), sum(plain)/1000), "1/s")
		res.metric("peak_rss_mb", peakRSSMB(), "MB")
		res.info("decompose_s %.4f s (median of %d calls), slowest call %.1f ms, setup_s %.6f s, failed_ratio %g (%d/%d)",
			median(plain)/1000, len(plain), percentile(plain, 100), median(setups),
			ratio(float64(res.failed), float64(res.attempted)), res.failed, res.attempted)
		return res, nil
	}

	sweepMs := tracedLayers(res, traced, cfg.nproc)
	rp, err := replaySweep(x, rank, w.algo, cfg.nproc, cfg.seed, cfg.tracer)
	if err != nil {
		return nil, err
	}
	rp.report(res)
	if err := timeCheckpointSave(res, traced, cfg.outDir); err != nil {
		return nil, err
	}
	zeroServeLayers(res)
	res.metric("trace.overhead_ratio", ratio(median(durationsOf(traced)), median(plain))-1, "ratio")
	res.metric("trace.unattributed_ratio", 1-ratio(rp.sweepMs, sweepMs), "ratio")
	res.info("traced %d calls, untraced %d; replayed sweep %.1f ms of measured sweep %.1f ms",
		len(traced), len(plain), rp.sweepMs, sweepMs)
	return res, nil
}

// tracedCall is one Decompose call with the program's own observations.
type tracedCall struct {
	wall     time.Duration
	res      *symprop.Result
	pools    int64
	allocB   uint64
	gcCycles uint32
}

func durationsOf(cs []tracedCall) []float64 {
	out := make([]float64, len(cs))
	for i, c := range cs {
		out[i] = ms(c.wall)
	}
	return out
}

// observedDecompose runs one Decompose call inside a span and records the
// exec and runtime counters it moved.
func observedDecompose(x *spsym.Tensor, opts symprop.Options, tr *Tracer, op string) (tracedCall, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pools := exec.PoolsCreated()
	var r *symprop.Result
	d, err := tr.Time("symprop", "Decompose", op, "", func() error {
		var err error
		r, err = symprop.Decompose(x, opts)
		return err
	})
	runtime.ReadMemStats(&after)
	return tracedCall{wall: d, res: r, pools: exec.PoolsCreated() - pools,
		allocB: after.TotalAlloc - before.TotalAlloc, gcCycles: after.NumGC - before.NumGC}, err
}

// tracedLayers reports what the program itself recorded during the traced
// calls — Result.Phases, Result.Trace and Result.PlanMetrics — and returns
// the median sweep wall time in ms.
func tracedLayers(res *result, calls []tracedCall, workers int) float64 {
	var wall, sweeps, pools, alloc, gcs []float64
	phases := map[string][]float64{}
	var busy, maxBusy, allBusy, invocations int64
	for _, c := range calls {
		wall = append(wall, ms(c.wall))
		pools = append(pools, float64(c.pools))
		alloc = append(alloc, float64(c.allocB)/(1<<20))
		gcs = append(gcs, float64(c.gcCycles))
		p := c.res.Phases
		for name, d := range map[string]time.Duration{"ttmc": p.TTMc, "tc": p.TC, "qr": p.QR, "svd": p.SVD, "core": p.Core} {
			phases[name] = append(phases[name], d.Seconds())
		}
		for _, ev := range c.res.Trace {
			sweeps = append(sweeps, float64(ev.WallNs)/1e6)
		}
		for _, pm := range c.res.PlanMetrics {
			allBusy += pm.BusyNs
			if strings.HasPrefix(pm.Name, "s3ttmc.") {
				busy += pm.BusyNs
				maxBusy += pm.MaxBusyNs
				invocations += pm.Invocations
			}
		}
	}
	res.metric("symprop.decompose_ms", median(wall), "ms")
	res.metric("tucker.sweep_ms", median(sweeps), "ms")
	for _, name := range []string{"ttmc", "tc", "qr", "svd", "core"} {
		res.metric("tucker."+name+"_s", median(phases[name]), "s")
	}
	res.metric("kernels.s3ttmc_busy_ms", ratio(float64(busy), float64(invocations))/1e6, "ms")
	res.metric("kernels.s3ttmc_imbalance", ratio(float64(maxBusy), float64(busy)), "ratio")
	res.metric("kernels.cpu_share", ratio(float64(allBusy)/1e6, sum(wall)*float64(workers)), "ratio")
	res.metric("exec.pools_created", mean(pools), "count")
	res.metric("runtime.alloc_mb", mean(alloc), "MB")
	res.metric("runtime.gc_cycles", mean(gcs), "count")
	return median(sweeps)
}

// replay holds one sweep's calls replayed with warm caches, each timed on
// its own; ms maps metric name to the median call time.
type replay struct {
	ms         map[string]float64
	sweepMs    float64
	gflops     float64
	fusionMiss float64
	signatures int
}

// Replay bounds: every call runs once to warm caches, then at least
// replayMinReps times and until replayMinMs of samples, at most
// replayMaxReps.
const (
	replayMinReps = 2
	replayMinMs   = 50
	replayMaxReps = 200
)

func timeReps(tr *Tracer, layer, name string, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, fmt.Errorf("%s.%s: %w", layer, name, err)
	}
	var ds []float64
	for len(ds) < replayMinReps || (sum(ds) < replayMinMs && len(ds) < replayMaxReps) {
		d, err := tr.Time(layer, name, fmt.Sprintf("replay-%d", len(ds)), "tucker.sweep", fn)
		if err != nil {
			return 0, fmt.Errorf("%s.%s: %w", layer, name, err)
		}
		ds = append(ds, ms(d))
	}
	return median(ds), nil
}

// replaySweep replays the layer calls of one HOQRI or HOOI sweep on x —
// the calls internal/tucker makes — on a seeded random orthonormal factor.
func replaySweep(x *spsym.Tensor, rank int, algo symprop.Algorithm, workers int, seed int64, tr *Tracer) (*replay, error) {
	u := linalg.RandomOrthonormal(x.Dim, rank, rand.New(rand.NewSource(seed)))
	rp := &replay{ms: map[string]float64{}}
	kopts := func(w int) (kernels.Options, func()) {
		pool := exec.NewPool(w)
		return kernels.Options{Workers: w, PlanCache: &css.Cache{}, Pool: &kernels.WorkspacePool{},
			Schedules: &kernels.ScheduleCache{}, Exec: pool}, pool.Close
	}
	var err error
	step := func(key, layer, name string, fn func() error) {
		if err != nil {
			return
		}
		rp.ms[key], err = timeReps(tr, layer, name, fn)
	}

	counters := obs.NewCounters()
	obs.SetGlobalCounters(counters)
	calls := 0
	optsN, closeN := kopts(workers)
	defer closeN()
	var yp *linalg.Matrix
	step("kernels.s3ttmc_ms", "kernels", "S3TTMcSymProp", func() error {
		calls++
		var err error
		yp, err = kernels.S3TTMcSymProp(x, u, optsN)
		return err
	})
	obs.SetGlobalCounters(nil)
	rp.fusionMiss = ratio(float64(sumPrefix(counters.Snapshot(), "fusion.miss")), float64(calls))

	opts1, close1 := kopts(1)
	defer close1()
	step("kernels.s3ttmc_1w_ms", "kernels", "S3TTMcSymProp.1w", func() error {
		_, err := kernels.S3TTMcSymProp(x, u, opts1)
		return err
	})
	if err != nil {
		return nil, err
	}
	sweep := []string{"kernels.s3ttmc_ms"}
	if algo == symprop.HOQRI {
		p := kernels.PermCounts(x.Order-1, rank)
		var cp, a *linalg.Matrix
		step("linalg.multn_ms", "linalg", "MulTN", func() error { cp = linalg.MulTN(u, yp); return nil })
		step("linalg.mulntweighted_ms", "linalg", "MulNTWeighted", func() error { a = linalg.MulNTWeighted(yp, cp, p); return nil })
		step("linalg.orthonormalize_ms", "linalg", "Orthonormalize", func() error { linalg.Orthonormalize(a); return nil })
		sweep = append(sweep, "linalg.multn_ms", "linalg.mulntweighted_ms", "linalg.orthonormalize_ms")
	} else {
		var full, g *linalg.Matrix
		step("kernels.expand_ms", "kernels", "ExpandCompactColumns", func() error {
			full = kernels.ExpandCompactColumns(yp, x.Order, rank)
			return nil
		})
		step("linalg.mulnt_ms", "linalg", "MulNT", func() error { g = linalg.MulNT(full, full); return nil })
		step("linalg.topeig_ms", "linalg", "TopEigenvectors", func() error {
			_, err := linalg.TopEigenvectors(g, rank)
			return err
		})
		step("linalg.multn_ms", "linalg", "MulTN", func() error { linalg.MulTN(u, yp); return nil })
		sweep = append(sweep, "kernels.expand_ms", "linalg.mulnt_ms", "linalg.topeig_ms", "linalg.multn_ms")
	}

	// Plan building for every distinct multiplicity signature, cold, and
	// the compact flop count of one S3TTMc call.
	sigs := signatures(x)
	rp.signatures = len(sigs)
	var flops int64
	step("css.plan_build_ms", "css", "BuildPlan", func() error {
		flops = 0
		for _, s := range sigs {
			plan, err := css.BuildPlan(s.sig)
			if err != nil {
				return err
			}
			flops += int64(s.count) * plan.CompactFlops(rank)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, k := range sweep {
		rp.sweepMs += rp.ms[k]
	}
	rp.gflops = ratio(float64(flops), rp.ms["kernels.s3ttmc_ms"]*1e6)
	return rp, nil
}

// report adds the replay's metrics; calls the algorithm does not make
// read 0.
func (rp *replay) report(res *result) {
	for _, k := range []string{"kernels.s3ttmc_ms", "kernels.s3ttmc_1w_ms", "kernels.expand_ms", "css.plan_build_ms",
		"linalg.multn_ms", "linalg.mulntweighted_ms", "linalg.orthonormalize_ms", "linalg.mulnt_ms", "linalg.topeig_ms"} {
		res.metric(k, rp.ms[k], "ms")
	}
	res.metric("kernels.s3ttmc_speedup", ratio(rp.ms["kernels.s3ttmc_1w_ms"], rp.ms["kernels.s3ttmc_ms"]), "x")
	res.metric("kernels.gflops", rp.gflops, "GFLOP/s")
	res.metric("kernels.fusion_miss", rp.fusionMiss, "count")
	res.metric("css.signatures", float64(rp.signatures), "count")
}

type signature struct {
	sig   []int
	count int
}

// signatures lists the distinct multiplicity signatures of x's non-zeros
// with their counts, in a fixed order.
func signatures(x *spsym.Tensor) []signature {
	vals := make([]int32, x.Order)
	buf := make([]int, x.Order)
	byKey := map[string]*signature{}
	for k := 0; k < x.NNZ(); k++ {
		_, sig := css.Signature(x.IndexAt(k), vals, buf)
		key := fmt.Sprint(sig)
		s := byKey[key]
		if s == nil {
			s = &signature{sig: append([]int(nil), sig...)}
			byKey[key] = s
		}
		s.count++
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]signature, len(keys))
	for i, k := range keys {
		out[i] = *byKey[k]
	}
	return out
}

// timeCheckpointSave times checkpoint.Save of the first traced call's final
// state, the snapshot a job writes every checkpoint_every sweeps; 0 when no
// traced call succeeded.
func timeCheckpointSave(res *result, calls []tracedCall, dir string) error {
	res.metric("checkpoint.save_ms", 0, "ms")
	if len(calls) == 0 {
		return nil
	}
	r := calls[0].res
	path := filepath.Join(dir, fmt.Sprintf("replay-%d.ckpt", os.Getpid()))
	defer os.Remove(path)
	st := &checkpoint.State{Algo: "replay", Iteration: r.Iters, U: r.U,
		Objective: r.Objective, RelError: r.RelError, Trace: r.Trace}
	d, err := timeReps(nil, "checkpoint", "Save", func() error { return checkpoint.Save(path, st) })
	if err != nil {
		return err
	}
	res.metric("checkpoint.save_ms", d, "ms")
	return nil
}

// checkDecomposition checks a Decompose result against the workload's
// reference: an orthonormal factor, and the final relative error and fit
// (||C||²/||X||²) the reference run produced.
func checkDecomposition(r *symprop.Result, ref reference) error {
	if e := linalg.OrthonormalityError(r.U); !(e <= 1e-8) {
		return fmt.Errorf("factor not orthonormal: max |UᵀU-I| = %g", e)
	}
	if rel := r.FinalRelError(); !(math.Abs(rel-ref.RelError) <= 1e-9) {
		return fmt.Errorf("relative error %.15g, reference %.15g", rel, ref.RelError)
	}
	if fit := r.CoreNormSquared() / r.NormX2; !(math.Abs(fit-ref.Fit) <= 1e-6*math.Abs(ref.Fit)) {
		return fmt.Errorf("fit %.15g, reference %.15g", fit, ref.Fit)
	}
	return nil
}

func sumPrefix(m map[string]int64, prefix string) int64 {
	var s int64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}
