// Command vcbench is vcprof's benchmark. It runs one workload per
// process and prints, as the last line of standard output, one JSON
// object with the run's correctness verdict and its metrics:
//
//	bash vcbench/run.sh --workload stat-sweep --seed 1 --seconds 30 --trace 0
//
// --workload all runs the three workloads one after another, each in a
// fresh child process, and fails if any of them does.
//
// Workloads (see README.md for why each exists):
//
//	stat-sweep  harness.RunAll of fig4–fig7 on game1 at CRF 35 and 60, 1 worker
//	figures     harness.RunAll of the counted/window figures, nproc workers
//	serve       an in-process vcprofd driven by vcload's bimodal mix, 16 clients
//
// With --trace 0 the run measures whole cold passes with tracing off
// and reports the end-to-end metrics. With --trace 1 it runs one
// untraced and one traced pass, then the canonical-cell layer probe,
// reports the per-layer metrics and writes a Chrome trace.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config carries the command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	out      string // directory for Chrome traces
}

// report accumulates a run's verdict, metrics and human-readable lines.
type report struct {
	res   result
	shown []string // printed, not gated: see README.md
	notes []string // correctness failures
}

func newReport() *report {
	return &report{res: result{Correct: true, Metrics: map[string]metric{}}}
}

func (r *report) set(name, unit string, v float64) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// show prints a value that is not one of the JSON result's metrics.
func (r *report) show(name, unit string, v float64) {
	r.shown = append(r.shown, fmt.Sprintf("shown  %-34s %14.6g %s", name, v, unit))
}

// fail records a correctness failure; the run still reports its
// metrics but exits non-zero.
func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "vcbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "stat-sweep | figures | serve | all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed (the serve job mix)")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measurement budget in seconds; whole passes run until it is spent (at least one)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and a Chrome trace")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for traces")
	pins := flag.Bool("pin-serve", false, "print the serve pin table for seeds 1 and 2 and exit (maintenance)")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	ctx := context.Background()
	if *pins {
		return printPins(ctx)
	}

	rep := newReport()
	var err error
	switch cfg.workload {
	case "stat-sweep", "figures":
		err = runHarness(ctx, cfg, harnessWorkloads[cfg.workload], rep)
	case "serve":
		err = runServe(ctx, cfg, rep)
	case "all":
		return runEach(cfg, trace)
	default:
		return fmt.Errorf("unknown --workload %q (want stat-sweep, figures, serve or all)", cfg.workload)
	}
	if err != nil {
		return err
	}
	if !cfg.trace {
		rep.set("max_rss_mb", "MiB", maxRSSMiB())
	}
	printHuman(cfg, rep)
	line, err := json.Marshal(rep.res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !rep.res.Correct {
		os.Exit(1)
	}
	return nil
}

// runEach runs every workload in a fresh process of this binary, so no
// workload inherits another's memo cache, clip cache or heap.
func runEach(cfg config, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var failed []string
	for _, w := range []string{"stat-sweep", "figures", "serve"} {
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(cfg.seed, 10),
			"--seconds", strconv.Itoa(cfg.seconds), "--trace", strconv.Itoa(trace), "--out", cfg.out)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w, err))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("workloads failed: %s", strings.Join(failed, "; "))
	}
	return nil
}

// printHuman prints the host fingerprint, every metric by name with its
// unit, and any correctness failure, ahead of the JSON line.
func printHuman(cfg config, rep *report) {
	fmt.Printf("host go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Printf("run workload=%s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	names := make([]string, 0, len(rep.res.Metrics))
	for name := range rep.res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.res.Metrics[name]
		fmt.Printf("metric %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	ratio := 0.0
	if rep.res.Attempted > 0 {
		ratio = float64(rep.res.Failed) / float64(rep.res.Attempted)
	}
	fmt.Printf("shown  %-34s %14.6g ratio (%d failed of %d attempted)\n", "fail_ratio", ratio, rep.res.Failed, rep.res.Attempted)
	for _, l := range rep.shown {
		fmt.Println(l)
	}
	for _, n := range rep.notes {
		fmt.Println("INCORRECT:", n)
	}
}

// passBudget reports whether another whole pass fits in the run's
// measurement budget, judged by the passes already made.
func passBudget(cfg config, start time.Time, walls []float64) bool {
	if len(walls) == 0 {
		return true
	}
	return time.Since(start).Seconds()+median(walls) <= float64(cfg.seconds)
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs; +Inf entries (failed
// jobs) sort last, so they count as beyond every limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	rank = max(0, min(rank, len(s)-1))
	return s[rank]
}

// maxRSSMiB reads the process's peak resident set (VmHWM).
func maxRSSMiB() float64 {
	kb := procField("/proc/self/status", "VmHWM:")
	v, err := strconv.ParseFloat(strings.TrimSuffix(kb, " kB"), 64)
	if err != nil {
		return 0
	}
	return v / 1024
}

func cpuModel() string { return procField("/proc/cpuinfo", "model name") }

// procField returns the trimmed value after the first line starting
// with key in a /proc file ("" when absent).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, key) {
			v := strings.TrimPrefix(line, key)
			return strings.TrimSpace(strings.TrimLeft(v, " \t:"))
		}
	}
	return ""
}
