// Command benchmark runs one seeded workload against an mpserved built
// from the tree under test and prints every metric by name and unit,
// ending with one JSON line:
//
//	{"correct":..., "attempted":..., "failed":..., "metrics":{name:{value,unit}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they
// are the per-layer ones.  run.sh builds both binaries and runs this:
//
//	bash benchmark/run.sh --workload echo_direct --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// segments is how many server processes a run measures, one after the
// other, each for an equal share of the window.  Each start is timed
// for setup_s, and the end-to-end figures are medians over the bins of
// all segments: a process that happens to settle into a slow schedule
// moves a fifth of the bins, not the whole run.
const segments = 5

// warmup is the load phase each segment runs, and discards, before
// measuring.
const warmup = time.Second

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	server   string
	outDir   string
	src      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.server, "server", "", "mpserved binary built from the tree under test")
	flag.StringVar(&o.outDir, "out", ".bench_build", "directory for spans and result records")
	flag.StringVar(&o.src, "src", ".", "root of the tree under test (for the run record)")
	flag.Parse()
	if err := run(&o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// segment is what one server process measured.
type segment struct {
	setup     float64     // seconds from process start to first correct response
	warm      phaseResult // unmeasured; only its failures count
	main      phaseResult // the untraced window
	traced    *phaseResult
	bins      []bin     // main, sliced by due time
	cpu       []float64 // server CPU seconds at each bin boundary
	clientCPU float64   // this process's CPU seconds over main
	before    *scrape
	after     *scrape
	exitOut   string
	rssMB     float64
}

// runResult is everything one run measured.
type runResult struct {
	w         *workload
	segs      []*segment
	rec       *recorder          // traced run only
	probes    map[string]float64 // layer probe results by metric name
	layerFail int                // probe answers the references rejected
}

// pooled merges the phases pick returns of every segment.
func (r *runResult) pooled(pick func(*segment) []*phaseResult) phaseResult {
	var out phaseResult
	for _, sg := range r.segs {
		for _, p := range pick(sg) {
			if p != nil {
				out.merge(&p.tally)
				out.late = append(out.late, p.late...)
				out.wrong = append(out.wrong, p.wrong...)
			}
		}
	}
	return out
}

func mainPhase(sg *segment) []*phaseResult   { return []*phaseResult{&sg.main} }
func tracedPhase(sg *segment) []*phaseResult { return []*phaseResult{sg.traced} }
func allPhases(sg *segment) []*phaseResult   { return []*phaseResult{&sg.warm, &sg.main, sg.traced} }

const timeout = 10 * time.Second

func run(o *options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.server == "" {
		return fmt.Errorf("-server is required")
	}
	conns := runtime.NumCPU()
	pools := make([][]request, conns)
	for c := range pools {
		pools[c] = pool(w, o.seed, c)
	}
	res := &runResult{w: w}
	window := time.Duration(o.seconds) * time.Second / segments
	if o.trace == 1 {
		// Half of each segment untraced, half traced: the difference is
		// the tracing overhead; the server counters cover both halves.
		window /= 2
		res.rec = newRecorder(200_000)
	}
	for i := range segments {
		sg, err := runSegment(o, w, pools, i, window, res.rec)
		if err != nil {
			return err
		}
		res.segs = append(res.segs, sg)
	}
	if o.trace == 1 {
		if err := runProbes(res, pools[0], conns); err != nil {
			return err
		}
	}

	var ms []metric
	if o.trace == 1 {
		ms = perLayer(res)
	} else {
		ms = endToEnd(res)
	}
	// Every answer counts, warm-up and probes included.
	every := res.pooled(allPhases)
	attempted, failed := every.attempted(), every.failed()+int64(res.layerFail)
	report(o, res, ms, &every, failed)
	if res.rec != nil {
		path := filepath.Join(o.outDir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		if err := res.rec.writeChrome(path); err != nil {
			return err
		}
		fmt.Printf("spans: %s\n", path)
	}
	out := map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metricsJSON(ms),
	}
	if err := writeRecord(o, res, out, every.wrong); err != nil {
		return err
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runSegment starts server process i, warms it up, measures one window
// (and, when rec is set, a traced one after it), reads its counters
// around the measured load, and stops it.
func runSegment(o *options, w *workload, pools [][]request, i int, window time.Duration, rec *recorder) (*segment, error) {
	srv, err := startServer(o.server, w, &pools[0][0], timeout)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	sg := &segment{setup: srv.setup.Seconds()}
	fabric := w.flagSet("-shards")
	var keys []string
	if fabric {
		if keys, err = shardKeys(srv.addr, timeout); err != nil {
			return nil, err
		}
	}
	// Every phase of every segment draws its own arrival schedule.
	phase := func(d time.Duration, rec *recorder, index int) phaseResult {
		cfg := &loadConfig{addr: srv.addr, w: w, pools: pools, timeout: timeout, rec: rec, dur: d}
		if w.open {
			cfg.sched = arrivals(w, o.seed, 3*i+index, d)
		}
		return runPhase(cfg, nowNs())
	}

	sg.warm = phase(warmup, nil, 0)
	if sg.before, err = fetchScrape(srv.addr, keys, fabric, timeout); err != nil {
		return nil, err
	}
	nbins := max(int(window/w.bin), 1)
	cpuc := sampleCPU(srv, nowNs(), int64(w.bin), nbins)
	ru0 := rusage()
	sg.main = phase(window, nil, 1)
	sg.clientCPU = rusage() - ru0
	sg.cpu = <-cpuc
	sg.bins = sg.main.bins(sg.main.start, int64(w.bin), nbins)
	if rec != nil {
		t := phase(window, rec, 2)
		sg.traced = &t
	}
	if sg.after, err = fetchScrape(srv.addr, keys, fabric, timeout); err != nil {
		return nil, err
	}
	if sg.rssMB, err = srv.rssPeakMB(); err != nil {
		return nil, err
	}
	sg.exitOut, err = srv.stop(timeout)
	srv = nil
	return sg, err
}

// sampleCPU reads the server's CPU seconds at start and at the end of
// each of n bins of width ns, and sends the n+1 readings when done.  A
// failed read repeats the previous reading.
func sampleCPU(s *server, start, width int64, n int) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		var xs []float64
		prev := 0.0
		for k := 0; k <= n; k++ {
			if d := start + int64(k)*width - nowNs(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			if v, err := s.cpuSeconds(); err == nil {
				prev = v
			}
			xs = append(xs, prev)
		}
		out <- xs
	}()
	return out
}

// rusage returns this process's user+system CPU seconds so far.
func rusage() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func metricsJSON(ms []metric) map[string]any {
	out := map[string]any{}
	for _, m := range ms {
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return out
}

// report prints the run's context and every metric by name and unit.
func report(o *options, res *runResult, ms []metric, every *phaseResult, failed int64) {
	ctx := runContext(o, res.w)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", res.w.name, o.seed, o.seconds, o.trace)
	for _, k := range sortedKeys(ctx) {
		fmt.Printf("  %-20s %v\n", k, ctx[k])
	}
	fmt.Printf("attempted %d failed %d", every.attempted(), failed)
	for i := range numOutcomes {
		if i != ok && every.counts[i] > 0 {
			fmt.Printf(" %s=%d", outcomeNames[i], every.counts[i])
		}
	}
	fmt.Println()
	for _, w := range every.wrong {
		fmt.Println("  wrong answer:", w)
	}
	t := res.pooled(mainPhase)
	n := len(t.latency)
	all := t.sorted()
	fmt.Printf("whole window: latency samples %d, p50 %.4f ms, p99 %.4f ms (%.0f beyond it); highest supported percentile: ",
		n, float64(quantile(all, 0.5))/1e6, float64(quantile(all, 0.99))/1e6, float64(n)*0.01)
	if tq, supported := supportedTail(n); supported {
		fmt.Printf("p%g = %.4f ms\n", tq*100, float64(quantile(all, tq))/1e6)
	} else {
		fmt.Println("none")
	}
	fmt.Printf("per %v bin of each server process (end-to-end figures are medians over all bins):\n", res.w.bin)
	for i, sg := range res.segs {
		fmt.Printf("  process %d: setup %.4f s\n", i, sg.setup)
		for k, b := range sg.bins {
			fmt.Printf("    bin %2d  ok %8d  %10.1f req/s  p50 %8.4f ms  p99 %8.4f ms  server %8.3f us/req\n",
				k, b.ok, float64(b.ok)/res.w.bin.Seconds(), float64(quantile(b.latency, 0.5))/1e6,
				float64(quantile(b.latency, 0.99))/1e6, ratio((sg.cpu[k+1]-sg.cpu[k])*1e6, float64(b.ok)))
		}
	}
	for _, m := range ms {
		fmt.Printf("  %-32s %14.6g %s\n", m.name, m.value, m.unit)
	}
}

// runContext is what every result is recorded with.
func runContext(o *options, w *workload) map[string]any {
	serverProcs := os.Getenv("GOMAXPROCS")
	if serverProcs == "" {
		serverProcs = fmt.Sprint(runtime.NumCPU())
	}
	return map[string]any{
		"nproc":             runtime.NumCPU(),
		"client_gomaxprocs": runtime.GOMAXPROCS(0),
		"server_gomaxprocs": serverProcs,
		"go_version":        runtime.Version(),
		"source":            sourceID(o.src),
		"mpserved_flags":    strings.Join(append([]string{"-addr", "127.0.0.1:0"}, w.flags...), " "),
		"seed":              o.seed,
		"connections":       runtime.NumCPU(),
		"server_processes":  segments,
		"loop":              loopDesc(w),
		"slo_ms":            w.sloMs,
	}
}

func loopDesc(w *workload) string {
	if w.open {
		return fmt.Sprintf("open, Poisson %.0f req/s", w.rate)
	}
	return fmt.Sprintf("closed, pipeline %d per connection", w.pipeline)
}

func sortedKeys(m map[string]any) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// writeRecord stores the run's context, result and first wrong answers
// under outDir/results.
func writeRecord(o *options, res *runResult, out map[string]any, wrong []string) error {
	dir := filepath.Join(o.outDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rec := map[string]any{"context": runContext(o, res.w), "result": out, "wrong_answers": wrong, "units": counterUnits}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", res.w.name, o.seed, o.trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

// counterUnits records the true unit of each scraped server counter
// whose name does not say it.
var counterUnits = map[string]string{
	"mlheap.gc_pause_ticks":  "wall microseconds (gcsync's default clock), despite the name",
	"serve.queue_ticks":      "1 ms clock ticks",
	"shard.ring_wait_ticks":  "claim-loop yields",
	"shard.reply_wait_ticks": "1 ms front clock ticks",
	"gc_pause_us":            "wall microseconds, over the server's lifetime (printed at exit)",
}
