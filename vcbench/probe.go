package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vcprof/internal/cbp"
	"vcprof/internal/encoders"
	"vcprof/internal/harness"
	"vcprof/internal/obs"
	"vcprof/internal/perf"
	"vcprof/internal/trace"
	"vcprof/internal/uarch/bpred"
	"vcprof/internal/uarch/cache"
	"vcprof/internal/uarch/pipeline"
)

// The canonical cell: game1, 3 frames, ScaleDiv 16, SVT-AV1 CRF 40
// preset 4. Every traced run records its event streams once and
// replays them through each layer on its own.
const (
	canonFamily    = encoders.Family("svt-av1")
	canonClip      = "game1"
	canonFrames    = 3
	canonDiv       = 16
	canonCRF       = 40
	canonPreset    = 4
	canonWindowOps = 250_000
)

// replayPredictors are the predictors timed on the recorded branch
// stream; tage-8KB is the one perf.Stat attaches live.
var replayPredictors = []string{"tage-8KB", "tage-64KB", "gshare-2KB", "gshare-32KB", "perceptron-8KB"}

// streams records the canonical cell's branch and memory streams as a
// trace.BranchSink and trace.MemSink.
type streams struct {
	pcs   []trace.PC
	taken []bool
	addrs []uint64
	sizes []int32
	store []bool
}

func (s *streams) Branch(pc trace.PC, taken bool) {
	s.pcs = append(s.pcs, pc)
	s.taken = append(s.taken, taken)
}

func (s *streams) Access(addr uint64, size int, store bool) {
	s.addrs = append(s.addrs, addr)
	s.sizes = append(s.sizes, int32(size))
	s.store = append(s.store, store)
}

// traced is the state of a traced run: the span recorder, the engine
// accounting, the served jobs, and counter baselines.
type traced struct {
	cfg       config
	rec       *recorder
	engine    engineStats
	clients   clientLog // served jobs of the traced pass and the probe
	counters0 map[string]uint64
}

func newTraced(cfg config) *traced {
	return &traced{
		cfg:       cfg,
		rec:       newRecorder(fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)),
		counters0: counterMap(),
	}
}

func counterMap() map[string]uint64 {
	m := map[string]uint64{}
	for _, c := range obs.Counters(true) {
		m[c.Name] = c.Value
	}
	return m
}

// probeResult carries the probe's counts.
type probeResult struct {
	insts       uint64
	branches    int
	mems        int
	ops         int
	tage8Miss   uint64
	l1, l2, llc uint64
	cycles      uint64
}

// probe measures every layer on the canonical cell's real streams and
// checks the replays against perf.Stat's counters for the same cell.
// It also runs the canonical cell through harness.RunCell once per
// cell kind, one small experiment through the traced engine and a few
// served jobs, so every per-layer metric is measured on every workload.
func (t *traced) probe(ctx context.Context, parent int, rep *report) (*probeResult, error) {
	rec := t.rec
	harness.ResetCellCache()
	s := harness.Scale{Frames: canonFrames, ScaleDiv: canonDiv, WindowOps: canonWindowOps}
	harness.ResetClipCache()
	sp := rec.begin("video.generate", canonClip, parent, 0)
	clip, err := s.Clip(canonClip)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	enc, err := encoders.New(canonFamily)
	if err != nil {
		return nil, err
	}
	opts := encoders.Options{CRF: canonCRF, Preset: canonPreset, Threads: 1}
	pr := &probeResult{}

	// Counting-only encode.
	o := opts
	o.NewWorkerCtx = func(int) *trace.Ctx { return trace.New() }
	sp = rec.begin("encoders.encode", canonClip, parent, 0)
	counted, err := enc.Encode(ctx, clip, o)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	pr.insts = counted.Insts

	// Record the branch and memory streams through the trace sinks.
	st := &streams{}
	tc := trace.New()
	tc.AttachBranchSink(st)
	tc.AttachMemSink(st)
	o.NewWorkerCtx = func(int) *trace.Ctx { return tc }
	sp = rec.begin("trace.stream_record", canonClip, parent, 0)
	recorded, err := enc.Encode(ctx, clip, o)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	pr.branches, pr.mems = len(st.pcs), len(st.addrs)

	// The µop window, through perf.RecordWindow.
	sp = rec.begin("trace.record", canonClip, parent, 0)
	win, _, err := perf.RecordWindow(ctx, enc, clip, opts, 0.5, canonWindowOps)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	pr.ops = len(win.Ops)

	sp = rec.begin("perf.stat", canonClip, parent, 0)
	ctrs, err := perf.Stat(ctx, enc, clip, opts)
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	// One span per replay loop: a timer per event would cost more than
	// a gshare lookup.
	for _, name := range replayPredictors {
		p, err := bpred.NewByName(name)
		if err != nil {
			return nil, err
		}
		m := bpred.NewMonitor(p)
		sp = rec.begin("bpred.replay", name, parent, 0)
		for i, pc := range st.pcs {
			m.Branch(pc, st.taken[i])
		}
		rec.end(sp)
		if name == "tage-8KB" {
			pr.tage8Miss = m.Mispredict
		}
	}

	h, err := cache.NewXeonHierarchy()
	if err != nil {
		return nil, err
	}
	sp = rec.begin("cache.replay", canonClip, parent, 0)
	for i, a := range st.addrs {
		h.SpanAccess(a, int(st.sizes[i]), st.store[i])
	}
	rec.end(sp)
	pr.l1, pr.l2, pr.llc = h.L1.Stats().Misses, h.L2.Stats().Misses, h.LLC.Stats().Misses

	sim, err := pipeline.New(pipeline.Broadwell())
	if err != nil {
		return nil, err
	}
	sp = rec.begin("pipeline.replay", canonClip, parent, 0)
	pres, err := sim.Run(win.Ops)
	rec.end(sp)
	if err != nil {
		return nil, err
	}
	pr.cycles = pres.Cycles

	tr, err := cbp.FromRecorder(canonClip, win)
	if err != nil {
		return nil, err
	}
	sp = rec.begin("cbp.championship", canonClip, parent, 0)
	_, err = cbp.Championship(bpred.PaperSet(), []cbp.Trace{tr})
	rec.end(sp)
	if err != nil {
		return nil, err
	}

	// Replay cross-check: the replays must see the program perf.Stat saw.
	l1, l2, llc := h.MPKI(ctrs.Instructions)
	checks := []struct {
		what      string
		got, want any
	}{
		{"instructions (counting encode)", counted.Insts, ctrs.Instructions},
		{"instructions (stream recording)", recorded.Insts, ctrs.Instructions},
		{"branches", uint64(pr.branches), ctrs.Branches},
		{"tage-8KB mispredicts", pr.tage8Miss, ctrs.BranchMisses},
		{"L1D MPKI", l1, ctrs.L1DMPKI},
		{"L2 MPKI", l2, ctrs.L2MPKI},
		{"LLC MPKI", llc, ctrs.LLCMPKI},
	}
	for _, c := range checks {
		if c.got != c.want {
			rep.fail("replay cross-check: %s = %v, perf.Stat = %v", c.what, c.got, c.want)
		}
	}
	fmt.Printf("crosscheck insts=%d branches=%d tage8_mispredicts=%d l1d_misses=%d mem_accesses=%d (perf.Stat: %d, %d, %d, L1D MPKI %.6g)\n",
		pr.insts, pr.branches, pr.tage8Miss, pr.l1, pr.mems, ctrs.Instructions, ctrs.Branches, ctrs.BranchMisses, ctrs.L1DMPKI)

	// Every cell kind through harness.RunCell, under one experiment-like
	// span so the engine accounting covers it.
	cells := []harness.Cell{
		s.StatCell(canonFamily, canonClip, canonCRF, canonPreset),
		s.CountedCell(canonFamily, canonClip, canonCRF, canonPreset),
		s.WindowCell(canonFamily, canonClip, canonCRF, canonPreset),
		s.PipelineCell(canonFamily, canonClip, canonCRF, canonPreset),
	}
	exp := rec.begin("harness.experiment", "canonical-cells", parent, 0)
	t0 := time.Now()
	for _, c := range cells {
		c0 := time.Now()
		sp = rec.begin("harness.cell", c.Kind.String(), exp, 0)
		_, hit, err := harness.RunCell(ctx, c)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		t.engine.cellTime += time.Since(c0)
		t.engine.lookups++
		if hit {
			t.engine.hits++
		}
	}
	t.engine.capacity += time.Since(t0)
	rec.end(exp)

	// One small experiment through the traced engine (Plan.Assemble).
	tables, err := tracedEngine(ctx, rec, parent, []string{"table2"}, harness.QuickScale(), 1, &t.engine)
	if err != nil {
		return nil, err
	}
	checkGoldens(rep, tables, harnessWorkload{})

	// A few served jobs, for the service layer.
	if err := t.probeServe(ctx, parent, rep); err != nil {
		return nil, err
	}
	return pr, nil
}

// finish runs the probe, computes the per-layer metrics, writes the
// Chrome trace and prints the self-time accounting of the traced pass.
func (t *traced) finish(ctx context.Context, root, pass int, untraced, tracedWall time.Duration, rep *report) error {
	rec := t.rec
	probe := rec.begin("bench.probe", "canonical", root, 0)
	pr, err := t.probe(ctx, probe, rep)
	rec.end(probe)
	rec.end(root)
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	spans := rec.snapshot()
	self := selfTimes(spans)
	tot := selfByName(spans, self)
	sec := func(k string) float64 { return tot[k].Seconds() }
	ns := func(k string, n int) float64 { return float64(tot[k].Nanoseconds()) / float64(max(n, 1)) }

	rep.set("video.generate_s", "s", sec("video.generate"))
	for _, k := range []string{"stat", "pipeline", "counted", "window"} {
		rep.set("harness.cell_s."+k, "s", sec("harness.cell/"+k))
	}
	rep.set("harness.assemble_s", "s", sec("harness.assemble"))
	rep.set("harness.cell_hit_ratio", "ratio", float64(t.engine.hits)/float64(max(t.engine.lookups, 1)))
	rep.set("harness.busy_share", "ratio", t.engine.cellTime.Seconds()/t.engine.capacity.Seconds())
	rep.set("encoders.encode_s", "s", sec("encoders.encode"))
	rep.set("encoders.insts", "count", float64(pr.insts))
	rep.set("trace.branch_events", "count", float64(pr.branches))
	rep.set("trace.mem_events", "count", float64(pr.mems))
	rep.set("trace.record_s", "s", sec("trace.record"))
	for _, p := range replayPredictors {
		rep.set("bpred."+p+".ns_per_branch", "ns", ns("bpred.replay/"+p, pr.branches))
	}
	rep.set("bpred.tage-8KB.mispredicts", "count", float64(pr.tage8Miss))
	rep.set("cache.ns_per_access", "ns", ns("cache.replay", pr.mems))
	rep.set("cache.l1d_misses", "count", float64(pr.l1))
	rep.set("cache.l2_misses", "count", float64(pr.l2))
	rep.set("cache.llc_misses", "count", float64(pr.llc))
	rep.set("pipeline.ns_per_op", "ns", ns("pipeline.replay", pr.ops))
	rep.set("pipeline.cycles", "count", float64(pr.cycles))
	stat := sec("perf.stat")
	rep.set("perf.stat_s", "s", stat)
	rep.set("perf.sink_share", "ratio", 1-(sec("encoders.encode")+sec("bpred.replay/tage-8KB")+sec("cache.replay"))/stat)
	rep.set("cbp.championship_s", "s", sec("cbp.championship"))

	c1 := counterMap()
	delta := func(name string) float64 { return float64(c1[name] - t.counters0[name]) }
	rep.set("service.submit_ms_p50", "ms", median(t.clients.submits))
	rep.set("service.queue_wait_ms_p99", "ms", quantile(t.clients.waits, 0.99))
	// Submissions answered from the result store, of all accepted ones
	// (queued, joined to an in-flight twin, or answered from the store).
	cached := delta("svc.jobs.cached")
	rep.set("service.store_hit_ratio", "ratio", cached/max(cached+delta("svc.jobs.submitted")+delta("svc.jobs.deduped"), 1))
	rep.set("sched.tasks", "count", delta("sched.tasks"))
	rep.set("sched.steals", "count", delta("sched.steals"))
	rep.set("bench.trace_overhead_share", "ratio", tracedWall.Seconds()/untraced.Seconds()-1)

	path, err := writeChrome(t.cfg.out, rec, spans, self)
	if err != nil {
		return err
	}
	fmt.Printf("trace %s (%d spans)\n", path, len(spans))
	printAccounting(spans, self, pass, untraced)
	return nil
}

// printAccounting attributes the traced pass's wall time to the layers
// below it: each layer's summed self time, plus the residual — the
// pass span's own self time, covered by no layer span. Layers that run
// in parallel can sum past the wall; the overlap is printed too.
func printAccounting(spans []span, self []time.Duration, pass int, untraced time.Duration) {
	under := func(i int) bool {
		for p := spans[i].parent; p >= 0; p = spans[p].parent {
			if p == pass {
				return true
			}
		}
		return false
	}
	by := map[string]time.Duration{}
	for i := range spans {
		if under(i) {
			by[spans[i].name+"/"+spans[i].tag] += self[i]
		}
	}
	keys := make([]string, 0, len(by))
	for k := range by {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wall := spans[pass].dur()
	sum := self[pass]
	fmt.Printf("account traced pass wall %.4f s (untraced %.4f s)\n", wall.Seconds(), untraced.Seconds())
	for _, k := range keys {
		fmt.Printf("account   %-40s self %10.4f s  %6.2f%%\n", k, by[k].Seconds(), 100*by[k].Seconds()/wall.Seconds())
		sum += by[k]
	}
	fmt.Printf("account   %-40s self %10.4f s  %6.2f%%\n", "residual (bench.pass self)", self[pass].Seconds(), 100*self[pass].Seconds()/wall.Seconds())
	fmt.Printf("account   sum of self times %.4f s = wall + parallel overlap %.4f s\n", sum.Seconds(), (sum - wall).Seconds())
}
