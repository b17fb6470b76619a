package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vcprof/internal/encoders"
	"vcprof/internal/harness"
	"vcprof/internal/sched"
	"vcprof/internal/video"
)

// goldenDir holds the committed QuickScale tables, relative to the
// checkout root the benchmark runs from. They are only read.
const goldenDir = "internal/harness/testdata/golden"

// harnessWorkload is one RunAll pass shape.
type harnessWorkload struct {
	ids     []string
	workers int
	clips   []string // QuickScale's clips when empty
	crfs    []int    // QuickScale's CRFs when empty
}

var harnessWorkloads = map[string]harnessWorkload{
	// Live TAGE-8KB predictor and cache hierarchy: 2 perf.Stat cells and
	// 2 pipeline cells of the canonical clip; fig5 and fig7 are served
	// from the memo cache. QuickScale's full grid (3 clips × 3 CRFs)
	// takes about 22 s a pass; this one takes about 5 s, so a run's
	// median spans several passes.
	"stat-sweep": {ids: []string{"fig4", "fig5", "fig6", "fig7"}, workers: 1,
		clips: []string{canonClip}, crfs: []int{35, 60}},
	// Counted and window cells plus the CBP championships in Assemble:
	// encode kernels, window recording and the parallel engine.
	"figures": {ids: []string{"table2", "fig1", "fig2a", "fig3", "fig8", "fig9", "fig10",
		"ablation-partition", "ablation-predictor", "ablation-cache", "ablation-prefetch"},
		workers: runtime.NumCPU()},
}

// scale is the workload's grid: QuickScale, narrowed to its clips and
// CRFs.
func (wl harnessWorkload) scale() harness.Scale {
	s := harness.QuickScale()
	if len(wl.clips) > 0 {
		s.Clips = wl.clips
	}
	if len(wl.crfs) > 0 {
		s.CRFs = wl.crfs
	}
	return s
}

// setupRepeats is how many times an untraced run repeats its set-up;
// setup_s is their median.
const setupRepeats = 11

// harnessSetup generates the scale's clips through Scale.Clip into a
// cold clip cache, so passes time the engine and not clip generation.
func harnessSetup(rec *recorder, parent int, s harness.Scale) (time.Duration, error) {
	t0 := time.Now()
	harness.ResetClipCache()
	for _, name := range s.Clips {
		sp := rec.begin("video.generate", name, parent, 0)
		_, err := s.Clip(name)
		rec.end(sp)
		if err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func runHarness(ctx context.Context, cfg config, wl harnessWorkload, rep *report) error {
	s := wl.scale()
	if cfg.trace {
		return traceHarness(ctx, cfg, wl, s, rep)
	}
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		d, err := harnessSetup(nil, -1, s)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	start := time.Now()
	var walls []float64
	var insts uint64
	for passBudget(cfg, start, walls) {
		rep.res.Attempted += len(wl.ids)
		tables, wall, err := runAllPass(ctx, wl, s)
		if err != nil {
			// A failed RunAll renders no table, so every experiment
			// of the pass failed.
			rep.res.Failed += len(wl.ids)
			rep.fail("pass %d: %v", len(walls)+1, err)
			break
		}
		walls = append(walls, wall.Seconds())
		checkGoldens(rep, tables, wl)
		if insts == 0 {
			if insts, err = passInsts(ctx, wl, s); err != nil {
				return err
			}
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("no pass completed")
	}
	wall := median(walls)
	total := 0.0
	for _, w := range walls {
		total += w
	}
	// A harness job is one cold pass, what a repro invocation waits for.
	rep.set("setup_s", "s", median(setups))
	rep.set("wall_s", "s", wall)
	rep.set("sim_minst_per_s", "Minst/s", float64(insts)/1e6/wall)
	rep.set("jobs_per_s", "jobs/s", float64(len(walls))/total)
	rep.set("job_p50_ms", "ms", 1e3*wall)
	fmt.Printf("passes %d walls_s %v modelled_insts %d\n", len(walls), walls, insts)
	return nil
}

// runAllPass is one cold RunAll pass: empty memo cache, warm clips.
func runAllPass(ctx context.Context, wl harnessWorkload, s harness.Scale) ([]*harness.Table, time.Duration, error) {
	harness.ResetCellCache()
	t0 := time.Now()
	rep, err := harness.RunAll(ctx, s, harness.Options{Workers: wl.workers, Experiments: wl.ids})
	wall := time.Since(t0)
	if err != nil {
		return nil, wall, err
	}
	return rep.Tables(), wall, nil
}

// checkGoldens compares every table's CSV with its committed
// QuickScale golden, narrowed to the workload's grid.
func checkGoldens(rep *report, tables []*harness.Table, wl harnessWorkload) {
	if len(tables) == 0 {
		rep.fail("pass rendered no tables")
	}
	for _, t := range tables {
		want, err := os.ReadFile(filepath.Join(goldenDir, t.ID+".csv"))
		if err != nil {
			rep.fail("table %s: %v", t.ID, err)
			continue
		}
		if got := t.CSV(); got != narrowGolden(string(want), wl) {
			rep.fail("table %s differs from %s/%s.csv", t.ID, goldenDir, t.ID)
		}
	}
}

// narrowGolden keeps the part of a golden CSV that a narrower grid
// renders. The CRF-sweep tables hold one clip per row (column "video"),
// and either one CRF per row (column "crf") or one per column
// ("crf<n>"); every value depends on its own cell only, so a narrower
// grid must reproduce exactly the kept rows and columns.
func narrowGolden(csv string, wl harnessWorkload) string {
	if len(wl.clips) == 0 && len(wl.crfs) == 0 {
		return csv
	}
	lines := strings.Split(strings.TrimSuffix(csv, "\n"), "\n")
	header := strings.Split(lines[0], ",")
	keepCRF := func(v string) bool { n, err := strconv.Atoi(v); return err == nil && slices.Contains(wl.crfs, n) }
	var cols []int
	videoCol, crfCol := -1, -1
	for i, h := range header {
		switch {
		case h == "video":
			videoCol = i
		case h == "crf":
			crfCol = i
		case strings.HasPrefix(h, "crf") && len(wl.crfs) > 0 && !keepCRF(h[3:]):
			continue
		}
		cols = append(cols, i)
	}
	var b strings.Builder
	for r, l := range lines {
		f := strings.Split(l, ",")
		if r > 0 && ((videoCol >= 0 && len(wl.clips) > 0 && !slices.Contains(wl.clips, f[videoCol])) ||
			(crfCol >= 0 && len(wl.crfs) > 0 && !keepCRF(f[crfCol]))) {
			continue
		}
		for k, i := range cols {
			if k > 0 {
				b.WriteByte(',')
			}
			b.WriteString(f[i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// passInsts sums the modelled instructions of the cells a cold pass
// computes: each distinct cell once, plus the windows pipeline cells
// record on the way. Stat and counted cells count their encode's
// instructions; window and pipeline cells count the micro-ops they
// record or replay. Read back through the memo cache after the timed
// pass, so it costs no pass time.
func passInsts(ctx context.Context, wl harnessWorkload, s harness.Scale) (uint64, error) {
	seen := map[harness.Cell]bool{}
	var cells []harness.Cell
	add := func(c harness.Cell) {
		if c.Threads < 1 {
			c.Threads = 1
		}
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	for _, id := range wl.ids {
		e, err := harness.Lookup(id)
		if err != nil {
			return 0, err
		}
		p, err := e.Plan(s)
		if err != nil {
			return 0, err
		}
		for _, c := range p.Cells {
			add(c)
			if c.Kind == harness.CellPipeline {
				w := c
				w.Kind = harness.CellWindow
				add(w)
			}
		}
	}
	var total uint64
	for _, c := range cells {
		r, _, err := harness.RunCell(ctx, c)
		if err != nil {
			return 0, fmt.Errorf("read back %s: %w", c, err)
		}
		switch {
		case r.Stat != nil:
			total += r.Stat.Instructions
		case r.Enc != nil:
			total += r.Enc.Insts
		case r.Rec != nil:
			total += uint64(len(r.Rec.Ops))
		case r.Pipe != nil:
			total += r.Pipe.Ops
		}
	}
	return total, nil
}

// engineStats accumulates the traced engine's accounting.
type engineStats struct {
	cellTime time.Duration // summed RunCell time
	capacity time.Duration // summed experiment wall × workers
	lookups  int
	hits     int
}

// tracedEngine runs experiments the way RunAll does — plan, evaluate
// the cell grid on a fresh work-stealing pool (so counted cells shard
// below the cell exactly as under RunAll), assemble — with a span
// around every harness.RunCell and every Plan.Assemble.
func tracedEngine(ctx context.Context, rec *recorder, parent int, ids []string, s harness.Scale, workers int, st *engineStats) ([]*harness.Table, error) {
	var tables []*harness.Table
	for _, id := range ids {
		e, err := harness.Lookup(id)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		exp := rec.begin("harness.experiment", id, parent, 0)
		p, err := e.Plan(s)
		if err != nil {
			return nil, err
		}
		g := &cellGraph{rec: rec, parent: exp, cells: p.Cells, res: make([]harness.CellResult, len(p.Cells))}
		pool := sched.NewPool(sched.Config{Workers: workers})
		err = pool.RunGraph(sched.WithPool(ctx, pool), g)
		pool.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		as := rec.begin("harness.assemble", id, exp, 0)
		ts, err := p.Assemble(s, g.res)
		rec.end(as)
		rec.end(exp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		tables = append(tables, ts...)
		st.cellTime += time.Duration(g.busy.Load())
		st.capacity += time.Since(t0) * time.Duration(workers)
		st.lookups += len(p.Cells)
		st.hits += int(g.hits.Load())
	}
	return tables, nil
}

// cellGraph presents a plan's cells to the pool, one traced RunCell
// per task; results land at their cell's index.
type cellGraph struct {
	rec    *recorder
	parent int
	cells  []harness.Cell
	res    []harness.CellResult
	busy   atomic.Int64 // summed RunCell nanoseconds
	hits   atomic.Int64
}

func (g *cellGraph) NumTasks() int      { return len(g.cells) }
func (g *cellGraph) Deps(int) []int     { return nil }
func (g *cellGraph) Cost(i int) uint64  { return cellCost(g.cells[i]) }
func (g *cellGraph) Label(i int) string { return g.cells[i].String() }

func (g *cellGraph) Run(ctx context.Context, i, worker int) error {
	c := g.cells[i]
	t0 := time.Now()
	sp := g.rec.begin("harness.cell", c.Kind.String(), g.parent, worker)
	r, hit, err := harness.RunCell(ctx, c)
	g.rec.end(sp)
	g.busy.Add(int64(time.Since(t0)))
	if err != nil {
		return fmt.Errorf("cell %s: %w", c, err)
	}
	if hit {
		g.hits.Add(1)
	}
	g.res[i] = r
	return nil
}

// cellCost mirrors the engine's static cost table (encoders.CostHint
// scaled by what the cell kind does), which orders the pool's
// shortest-remaining-first policy exactly as under RunAll.
func cellCost(c harness.Cell) uint64 {
	base := uint64(1)
	if meta, err := video.LookupClip(c.Clip); err == nil {
		m := meta.Scale(c.Div)
		base = encoders.CostHint(c.Family, m.Width*m.Height, c.Frames, c.CRF, c.Preset)
	}
	switch c.Kind {
	case harness.CellStat:
		return 3 * base
	case harness.CellWindow:
		return 2 * base
	case harness.CellPipeline:
		return max(c.WindowOps/64, 1)
	default:
		return base
	}
}

// traceHarness is the traced run: one untraced RunAll pass, one traced
// pass through the same engine steps, then the layer probe.
func traceHarness(ctx context.Context, cfg config, wl harnessWorkload, s harness.Scale, rep *report) error {
	tr := newTraced(cfg)
	root := tr.rec.begin("bench.run", cfg.workload, -1, 0)
	setup := tr.rec.begin("bench.setup", cfg.workload, root, 0)
	if _, err := harnessSetup(tr.rec, setup, s); err != nil {
		return err
	}
	tr.rec.end(setup)

	rep.res.Attempted += 2 * len(wl.ids)
	tables, untraced, err := runAllPass(ctx, wl, s)
	if err != nil {
		return fmt.Errorf("untraced pass: %w", err)
	}
	checkGoldens(rep, tables, wl)

	harness.ResetCellCache()
	t0 := time.Now()
	pass := tr.rec.begin("bench.pass", cfg.workload, root, 0)
	tables, err = tracedEngine(ctx, tr.rec, pass, wl.ids, s, wl.workers, &tr.engine)
	tr.rec.end(pass)
	traced := time.Since(t0)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	checkGoldens(rep, tables, wl)
	return tr.finish(ctx, root, pass, untraced, traced, rep)
}
