package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vcprof/internal/cluster"
	"vcprof/internal/encoders"
	"vcprof/internal/harness"
	"vcprof/internal/service"
	"vcprof/internal/video"
)

// The serve mix is vcload's bimodal mix, the traffic of the
// serving-tail study in EXPERIMENTS.md and of scripts/sched_smoke.sh
// (vcload -heavy-every 15 -flat-prio at its default 2 frames and div
// 32), from 16 closed-loop clients, 120 jobs a pass, served by a
// daemon at vcprofd's defaults: 4 workers, a shard pool of the same
// size, SJF admission, a queue cap of 64. Light jobs are vcload's
// draws for the run's seed: a family, a clip and one of four CRF
// points, with replacement, at the mid preset. Every 15th job is heavy:
// 4× frames at the family's slowest preset. Two changes from vcload,
// both measured (README.md): heavy jobs keep the light resolution,
// not 4× it, and they are the heavy draws of seed 7 (sched_smoke's)
// for every run seed, so the seed varies the light jobs only.
const (
	serveFrames     = 2
	serveDiv        = 32
	serveCRFPoints  = 4
	heavyEvery      = 15
	heavySeed       = 7
	serveClients    = 16
	serveWorkers    = 4
	serveJobs       = 120 // jobs per pass; a run pools its passes
	pollInterval    = 2 * time.Millisecond
	retryBudget429  = 100
	jobDeadline     = 2 * time.Minute
	probeServeJobs  = 24
	pinnedSeedCount = 2
	pinnedPasses    = 12 // more than a 30 s run makes
)

//go:embed serve_pins.txt
var servePinsText string

// serveJob is one drawn job: the spec the program sees plus the
// benchmark's own bookkeeping.
type serveJob struct {
	spec    service.JobSpec
	key     string
	payload []byte
	heavy   bool
}

// splitmix is splitmix64; the seed comes from the command line.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// newServeJob builds the spec vcload builds for (family, clip, CRF
// point), light or heavy.
func newServeJob(fam encoders.Family, clip string, point int, heavy bool) (serveJob, error) {
	enc, err := encoders.New(fam)
	if err != nil {
		return serveJob{}, err
	}
	lo, hi := enc.CRFRange()
	plo, phi, reversed := enc.PresetRange()
	spec := service.JobSpec{
		Kind: service.KindEncode, Family: string(fam), Clip: clip,
		Frames: serveFrames, ScaleDiv: serveDiv, CRF: lo + point*(hi-lo)/serveCRFPoints,
		Preset: (plo + phi) / 2, Threads: 1,
	}
	if heavy {
		spec.Frames, spec.Preset = 4*serveFrames, plo
		if reversed {
			spec.Preset = phi
		}
	}
	spec.Normalize()
	payload, err := json.Marshal(&spec)
	if err != nil {
		return serveJob{}, err
	}
	return serveJob{spec: spec, key: spec.Key(), payload: payload, heavy: heavy}, nil
}

// draw is one vcload job draw: family, clip, CRF point, and the
// priority draw that -flat-prio discards.
func draw(rng *splitmix) (encoders.Family, string, int) {
	fams, clips := encoders.Families(), video.Vbench()
	fam := fams[rng.next()%uint64(len(fams))]
	clip := clips[rng.next()%uint64(len(clips))].Name
	point := int(rng.next() % serveCRFPoints)
	rng.next()
	return fam, clip, point
}

// serveMix draws pass p's jobs: jobs 120p to 120p+119 of vcload's
// job sequence for the seed, so a run serves the sequence in order,
// with every heavy slot filled from pass 0 of heavySeed's sequence.
func serveMix(seed uint64, pass int) ([]serveJob, error) {
	light, heavy := splitmix{state: seed}, splitmix{state: heavySeed}
	for i := 0; i < pass*serveJobs; i++ {
		draw(&light)
	}
	jobs := make([]serveJob, serveJobs)
	for i := range jobs {
		fam, clip, point := draw(&light)
		hfam, hclip, hpoint := draw(&heavy)
		isHeavy := (i+1)%heavyEvery == 0
		if isHeavy {
			fam, clip, point = hfam, hclip, hpoint
		}
		j, err := newServeJob(fam, clip, point, isHeavy)
		if err != nil {
			return nil, err
		}
		jobs[i] = j
	}
	return jobs, nil
}

// universe lists every job the serve mix can draw, in a fixed order:
// every light spec, then the pass's heavy jobs.
func universe() ([]serveJob, error) {
	var jobs []serveJob
	for _, fam := range encoders.Families() {
		for _, m := range video.Vbench() {
			for point := 0; point < serveCRFPoints; point++ {
				j, err := newServeJob(fam, m.Name, point, false)
				if err != nil {
					return nil, err
				}
				jobs = append(jobs, j)
			}
		}
	}
	mix, err := serveMix(heavySeed, 0)
	if err != nil {
		return nil, err
	}
	for _, j := range mix {
		if j.heavy {
			jobs = append(jobs, j)
		}
	}
	return jobs, nil
}

// pins is the parsed pin table: the served body digest of every spec
// in the universe, and the folded digest of each pinned seed's pass.
type pins struct {
	body map[string][32]byte
	fold map[string]string // "seed/pass" → digest
}

func loadPins() (*pins, error) {
	p := &pins{body: map[string][32]byte{}, fold: map[string]string{}}
	sc := bufio.NewScanner(strings.NewReader(servePinsText))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case len(f) == 3 && f[0] == "spec":
			b, err := hex.DecodeString(f[2])
			if err != nil || len(b) != 32 {
				return nil, fmt.Errorf("serve pins: bad digest %q", f[2])
			}
			p.body[f[1]] = [32]byte(b)
		case len(f) == 4 && f[0] == "fold":
			p.fold[f[1]+"/"+f[2]] = f[3]
		}
	}
	return p, nil
}

// checkDigests verifies a pass: every body against its spec's pinned
// digest and, for a pinned seed and pass, the order-independent fold
// against the pinned fold.
func checkDigests(rep *report, p *pins, seed uint64, pass int, jobs []serveJob, got [][32]byte, label string) {
	for i, j := range jobs {
		d, ok := p.body[j.key]
		if !ok {
			rep.fail("%s: spec %s has no pinned digest", label, j.key)
			return
		}
		if got[i] != d {
			rep.fail("%s: job %d (%s %s crf=%d preset=%d) body digest differs from its pin",
				label, i, j.spec.Family, j.spec.Clip, j.spec.CRF, j.spec.Preset)
			return
		}
	}
	fold := cluster.FoldDigest(got)
	if pinned, ok := p.fold[fmt.Sprintf("%d/%d", seed, pass)]; ok && fold != pinned {
		rep.fail("%s: folded digest %s, pinned for seed %d pass %d: %s", label, fold, seed, pass, pinned)
	}
}

// daemon is an in-process vcprofd on a loopback listener.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	base   string
	dir    string
	served chan error
}

// bootDaemon is the serve set-up: clip generation through Scale.Clip
// at the light and the heavy scale, a fresh store directory and a
// started server with the given workers.
func bootDaemon(ctx context.Context, rec *recorder, parent int, dir string, workers int) (*daemon, error) {
	harness.ResetClipCache()
	for _, s := range []harness.Scale{{Frames: serveFrames, ScaleDiv: serveDiv}, {Frames: 4 * serveFrames, ScaleDiv: serveDiv}} {
		for _, m := range video.Vbench() {
			sp := rec.begin("video.generate", m.Name, parent, 0)
			_, err := s.Clip(m.Name)
			rec.end(sp)
			if err != nil {
				return nil, err
			}
		}
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	srv, err := service.NewServer(ctx, service.Config{StoreDir: dir, Workers: workers})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(ctx) // the listen error is the one to report
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), dir: dir, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, waits for its goroutines and removes the store.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// clientLog collects what the clients saw of the service layer, in ms:
// submit round trips, and for jobs admitted as queued the time until a
// status poll first saw them leave the queue (2 ms poll resolution).
type clientLog struct {
	submits []float64
	waits   []float64
}

// outcome is one job as its client saw it.
type outcome struct {
	ms     float64 // first submit → result bytes; +Inf when failed
	failed bool
	body   []byte
	err    error
}

// drive runs jobs through the daemon from a closed loop of clients:
// each client submits its next job only after the previous result
// arrived. With a recorder, every job and HTTP round trip is a span;
// with a log, the clients' service-layer timings are collected.
func drive(ctx context.Context, rec *recorder, parent int, base string, jobs []serveJob, clients int, log *clientLog) []outcome {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: jobDeadline}
	out := make([]outcome, len(jobs))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var mine clientLog
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					break
				}
				out[i] = driveJob(ctx, rec, parent, lane, hc, base, &jobs[i], &mine)
			}
			if log != nil {
				mu.Lock()
				log.submits = append(log.submits, mine.submits...)
				log.waits = append(log.waits, mine.waits...)
				mu.Unlock()
			}
		}(c + 1)
	}
	wg.Wait()
	return out
}

// driveJob submits one job, retrying 429s within the budget, polls its
// status at a fixed interval until it is done, then fetches the result
// bytes — the protocol vcload and the smokes use.
func driveJob(ctx context.Context, rec *recorder, parent, lane int, hc *http.Client, base string, j *serveJob, log *clientLog) outcome {
	tag := "light"
	if j.heavy {
		tag = "heavy"
	}
	sp := rec.begin("serve.job", tag, parent, lane)
	defer rec.end(sp)
	t0 := time.Now()
	fail := func(err error) outcome { return outcome{ms: math.Inf(1), failed: true, err: err} }
	deadline := t0.Add(jobDeadline)
	var st struct {
		Status string `json:"status"`
		Error  string `json:"error"`
	}
	for tries := 0; ; tries++ {
		s0 := time.Now()
		sub := rec.begin("service.submit", tag, sp, lane)
		code, body, err := do(ctx, hc, http.MethodPost, base+"/v1/jobs", j.payload)
		rec.end(sub)
		log.submits = append(log.submits, 1e3*time.Since(s0).Seconds())
		if err != nil {
			return fail(fmt.Errorf("submit: %w", err))
		}
		if code == http.StatusOK || code == http.StatusAccepted {
			if err := json.Unmarshal(body, &st); err != nil {
				return fail(fmt.Errorf("submit: %w", err))
			}
			break
		}
		if code != http.StatusTooManyRequests {
			return fail(fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(body)))
		}
		if tries >= retryBudget429 {
			return fail(fmt.Errorf("submit: 429 retry budget (%d) exhausted", retryBudget429))
		}
		time.Sleep(pollInterval)
	}
	accepted, queued := time.Now(), st.Status == "queued"
	for st.Status != "done" {
		if st.Status == "failed" {
			return fail(fmt.Errorf("job failed: %s", st.Error))
		}
		if time.Now().After(deadline) {
			return fail(fmt.Errorf("status: not done after %v", jobDeadline))
		}
		time.Sleep(pollInterval)
		pol := rec.begin("service.status", tag, sp, lane)
		code, body, err := do(ctx, hc, http.MethodGet, base+"/v1/jobs/"+j.key, nil)
		rec.end(pol)
		if err != nil {
			return fail(fmt.Errorf("status: %w", err))
		}
		if code != http.StatusOK {
			return fail(fmt.Errorf("status: HTTP %d: %s", code, bytes.TrimSpace(body)))
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fail(fmt.Errorf("status: %w", err))
		}
		if queued && st.Status != "queued" {
			log.waits = append(log.waits, 1e3*time.Since(accepted).Seconds())
			queued = false
		}
	}
	fet := rec.begin("service.fetch", tag, sp, lane)
	code, body, err := do(ctx, hc, http.MethodGet, base+"/v1/results/"+j.key, nil)
	rec.end(fet)
	if err != nil {
		return fail(fmt.Errorf("result: %w", err))
	}
	if code != http.StatusOK {
		return fail(fmt.Errorf("result: HTTP %d: %s", code, bytes.TrimSpace(body)))
	}
	return outcome{ms: 1e3 * time.Since(t0).Seconds(), body: body}
}

func do(ctx context.Context, hc *http.Client, method, url string, payload []byte) (int, []byte, error) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// passOut is one serve pass as measured.
type passOut struct {
	setup, wall time.Duration
	outs        []outcome
	span        int // the pass span of a traced pass
}

// servePass is one cold pass: boot (set-up, timed separately), the
// timed closed loop, then drain and store removal.
func servePass(ctx context.Context, cfg config, rec *recorder, parent, pass int, jobs []serveJob, clients int, log *clientLog) (passOut, error) {
	var po passOut
	t0 := time.Now()
	setup := rec.begin("bench.setup", "serve", parent, 0)
	d, err := bootDaemon(ctx, rec, setup, filepath.Join(cfg.out, fmt.Sprintf("serve-store-%d-%d", os.Getpid(), pass)), serveWorkers)
	rec.end(setup)
	if err != nil {
		return po, err
	}
	harness.ResetCellCache()
	po.setup = time.Since(t0)
	t1 := time.Now()
	po.span = rec.begin("bench.pass", "serve", parent, 0)
	po.outs = drive(ctx, rec, po.span, d.base, jobs, clients, log)
	rec.end(po.span)
	po.wall = time.Since(t1)
	return po, d.stop()
}

// tally folds a pass's outcomes into the report's op counts and
// checks its digests.
func tally(rep *report, p *pins, seed uint64, pass int, jobs []serveJob, outs []outcome, label string) {
	bodies := make([][]byte, len(outs))
	for i, o := range outs {
		rep.res.Attempted++
		if o.failed {
			rep.res.Failed++
			rep.fail("%s: job %d failed: %v", label, i, o.err)
		}
		bodies[i] = o.body
	}
	checkDigests(rep, p, seed, pass, jobs, cluster.BodyDigests(bodies), label)
}

// passInstsServe sums the modelled instructions of the distinct specs
// a cold pass computes, read from the served bodies.
func passInstsServe(outs []outcome, jobs []serveJob) uint64 {
	seen := map[string]bool{}
	var total uint64
	for i, o := range outs {
		if o.failed || seen[jobs[i].key] {
			continue
		}
		seen[jobs[i].key] = true
		res, err := service.DecodeResult(o.body)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(res.Output, "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "instructions" {
				n, _ := strconv.ParseUint(f[1], 10, 64) // a malformed count fails the digest check anyway
				total += n
			}
		}
	}
	return total
}

func runServe(ctx context.Context, cfg config, rep *report) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	clients := serveClients
	if cfg.trace {
		jobs, err := serveMix(cfg.seed, 0)
		if err != nil {
			return err
		}
		return traceServe(ctx, cfg, p, jobs, clients, rep)
	}
	start := time.Now()
	var setups, walls, all, light []float64
	var insts uint64
	completed := 0
	for passBudget(cfg, start, walls) {
		pass := len(walls)
		jobs, err := serveMix(cfg.seed, pass)
		if err != nil {
			return err
		}
		po, err := servePass(ctx, cfg, nil, -1, pass, jobs, clients, nil)
		if err != nil {
			return err
		}
		setups = append(setups, po.setup.Seconds())
		walls = append(walls, po.wall.Seconds())
		tally(rep, p, cfg.seed, pass, jobs, po.outs, fmt.Sprintf("pass %d", pass))
		for i, o := range po.outs {
			all = append(all, o.ms)
			if !jobs[i].heavy {
				light = append(light, o.ms)
			}
			if !o.failed {
				completed++
			}
		}
		insts += passInstsServe(po.outs, jobs)
	}
	// Set up a few more times so setup_s is a median of several.
	for len(setups) < setupRepeats {
		t0 := time.Now()
		d, err := bootDaemon(ctx, nil, -1, filepath.Join(cfg.out, fmt.Sprintf("serve-store-%d-setup", os.Getpid())), serveWorkers)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := d.stop(); err != nil {
			return err
		}
	}
	total := 0.0
	for _, w := range walls {
		total += w
	}
	wall := median(walls)
	rep.set("setup_s", "s", median(setups))
	rep.set("wall_s", "s", wall)
	rep.set("sim_minst_per_s", "Minst/s", float64(insts)/1e6/total)
	rep.set("jobs_per_s", "jobs/s", float64(completed)/total)
	rep.set("job_p50_ms", "ms", quantile(all, 0.50))
	// Tails are shown, not gated: they move between runs by more than
	// any bound the benchmark may set (README.md). A run pools about 400
	// light jobs, so p97 is the highest percentile with ten beyond it.
	rep.show("light_p97_ms", "ms", quantile(light, 0.97))
	rep.show("light_p99_ms", "ms", quantile(light, 0.99))
	rep.show("job_p99_ms", "ms", quantile(all, 0.99))
	fmt.Printf("passes %d walls_s %v jobs %d (light %d) clients %d modelled_insts %d\n",
		len(walls), walls, len(all), len(light), clients, insts)
	return nil
}

// traceServe is the traced run: one untraced pass, one traced pass,
// then the layer probe.
func traceServe(ctx context.Context, cfg config, p *pins, jobs []serveJob, clients int, rep *report) error {
	tr := newTraced(cfg)
	root := tr.rec.begin("bench.run", cfg.workload, -1, 0)
	po, err := servePass(ctx, cfg, nil, -1, 0, jobs, clients, nil)
	if err != nil {
		return err
	}
	tally(rep, p, cfg.seed, 0, jobs, po.outs, "untraced pass")
	untraced := po.wall
	// Baseline again, so the service and sched counters cover the
	// traced pass and the probe only.
	tr.counters0 = counterMap()
	po, err = servePass(ctx, cfg, tr.rec, root, 1, jobs, clients, &tr.clients)
	if err != nil {
		return err
	}
	tally(rep, p, cfg.seed, 0, jobs, po.outs, "traced pass")
	return tr.finish(ctx, root, po.span, untraced, po.wall, rep)
}

// probeServe drives a few light jobs of the seed's mix through a fresh
// one-worker daemon from one client, for the service-layer metrics.
func (t *traced) probeServe(ctx context.Context, parent int, rep *report) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	mix, err := serveMix(t.cfg.seed, 0)
	if err != nil {
		return err
	}
	var jobs []serveJob
	for _, j := range mix {
		if !j.heavy && len(jobs) < probeServeJobs {
			jobs = append(jobs, j)
		}
	}
	d, err := bootDaemon(ctx, t.rec, parent, filepath.Join(t.cfg.out, fmt.Sprintf("serve-store-%d-probe", os.Getpid())), 1)
	if err != nil {
		return err
	}
	sp := t.rec.begin("serve.probe", "light", parent, 0)
	outs := drive(ctx, t.rec, sp, d.base, jobs, 1, &t.clients)
	t.rec.end(sp)
	if err := d.stop(); err != nil {
		return err
	}
	tally(rep, p, t.cfg.seed, -1, jobs, outs, "probe jobs") // not a whole pass: no pinned fold
	return nil
}

// printPins computes the served body digest of every spec in the serve
// universe in-process (service.Execute is the daemon's own computation
// path) and prints the pin table, with the folds of the pinned seeds'
// first passes.
func printPins(ctx context.Context) error {
	universe, err := universe()
	if err != nil {
		return err
	}
	digests := make([][32]byte, len(universe))
	errs := make([]error, len(universe))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(universe); i = int(next.Add(1)) - 1 {
				res, err := service.Execute(ctx, &universe[i].spec)
				if err != nil {
					errs[i] = err
					continue
				}
				digests[i] = sha256.Sum256(res.Encode())
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	fmt.Println("# Served result-body digests for every spec the serve mix can draw:")
	fmt.Println("# \"spec <JobSpec.Key> <sha256 of the body>\". Then the folded digest")
	fmt.Println("# (cluster.FoldDigest) of each pinned seed's first passes: \"fold <seed> <pass> <digest>\".")
	fmt.Println("# Regenerate with: bash vcbench/run.sh --pin-serve > vcbench/serve_pins.txt")
	byKey := map[string][32]byte{}
	for i, j := range universe {
		byKey[j.key] = digests[i]
		fmt.Printf("spec %s %s\n", j.key, hex.EncodeToString(digests[i][:]))
	}
	for seed := uint64(1); seed <= pinnedSeedCount; seed++ {
		for pass := 0; pass < pinnedPasses; pass++ {
			jobs, err := serveMix(seed, pass)
			if err != nil {
				return err
			}
			ds := make([][32]byte, len(jobs))
			for i, j := range jobs {
				ds[i] = byKey[j.key]
			}
			fmt.Printf("fold %d %d %s\n", seed, pass, cluster.FoldDigest(ds))
		}
	}
	return nil
}
