package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// endToEnd computes the metrics a user of the server sees.  Throughput,
// latency and server CPU are medians over the bins of every server
// process, so a stall on the shared host, or one process's slow
// schedule, moves a few bins, not the run; error and SLO shares count
// every request of the window.
func endToEnd(res *runResult) []metric {
	var rps, p50s, p99s, cpu, setup []float64
	for _, sg := range res.segs {
		setup = append(setup, sg.setup)
		for k, b := range sg.bins {
			rps = append(rps, float64(b.ok)/res.w.bin.Seconds())
			p50s = append(p50s, float64(quantile(b.latency, 0.5))/1e6)
			p99s = append(p99s, float64(quantile(b.latency, 0.99))/1e6)
			cpu = append(cpu, ratio((sg.cpu[k+1]-sg.cpu[k])*1e6, float64(b.ok)))
		}
	}
	t := res.pooled(mainPhase)
	return []metric{
		{"setup_s", median(setup), "s"},
		{"throughput_rps", median(rps), "1/s"},
		{"latency_p50_ms", median(p50s), "ms"},
		{"latency_p99_ms", median(p99s), "ms"},
		{"correct_frac", 1 - t.errorFrac(), "fraction"},
		{"slo_met_frac", t.sloFrac(), "fraction"},
		{"server_cpu_us_per_req", median(cpu), "us"},
	}
}

// runProbes replays the workload's inputs through each layer's public
// functions (see layers.go) and keeps the resulting metrics.
func runProbes(res *runResult, reqs []request, procs int) error {
	depth := max(res.w.pipeline, 1)
	parseNs, writeNs, allocs, err := connProbe(reqs, depth, 4, res.rec)
	if err != nil {
		return err
	}
	// Submit-to-deliver, one request at a time, over the first 2000
	// requests of the cycle.
	sub := reqs[:min(len(reqs), 2000)]
	durs, wrong, err := submitProbe(sub, procs, res.w.flagSet("-mlalloc"), res.rec)
	if err != nil {
		return err
	}
	res.layerFail += wrong
	// Record probe: the workload's own list lengths where it has them,
	// else the mlalloc_open length distribution under the same seed.
	var lengths []int64
	for i := range reqs {
		if reqs[i].kind == kindMLAlloc {
			lengths = append(lengths, reqs[i].n)
		}
	}
	if len(lengths) == 0 {
		for _, r := range pool(workloadByName("mlalloc_open"), int64(len(reqs)), 0) {
			lengths = append(lengths, r.n)
		}
	}
	res.probes = map[string]float64{
		"serve.parse_ns":          parseNs,
		"serve.write_ns":          writeNs,
		"serve.allocs_per_req":    allocs,
		"serve.submit_deliver_us": p50(durs) / 1e3,
		"mlheap.record_ns":        recordProbe(lengths[:min(len(lengths), 400)], res.rec),
	}
	for _, lf := range lockFactories {
		res.probes[lf.metric] = lockProbe(lf.metric, lf.make(), procs, 1<<16, res.rec)
	}
	return nil
}

func (w *workload) flagSet(name string) bool { return slices.Contains(w.flags, name) }

var pauseRE = regexp.MustCompile(`gc_pause_us count=(\d+) p50=(\d+) p99=(\d+) max=(\d+)`)

// perLayer computes the traced run's per-layer metrics: the load
// generator's own, the server counters' deltas over the measured windows
// of every server process, the layer probes and the process-level
// figures.
func perLayer(res *runResult) []metric {
	d := func(section, name string) float64 {
		var t float64
		for _, sg := range res.segs {
			t += sg.after.counter(section, name) - sg.before.counter(section, name)
		}
		return t
	}
	dh := func(section, name string) (count, sum float64) {
		for _, sg := range res.segs {
			ha, hb := sg.after.hist(section, name), sg.before.hist(section, name)
			count += ha.count - hb.count
			sum += ha.sum() - hb.sum()
		}
		return count, sum
	}
	main := res.pooled(mainPhase)
	traced := res.pooled(tracedPhase)
	served := float64(main.counts[ok] + traced.counts[ok])
	attempted := float64(main.attempted() + traced.attempted())

	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name, v, unit}) }
	probe := func(name, unit string) { add(name, res.probes[name], unit) }

	// loadgen
	late := slices.Clone(main.late)
	slices.Sort(late)
	add("loadgen.late_p99_ms", float64(quantile(late, 0.99))/1e6, "ms")
	var clientCPU float64
	for _, sg := range res.segs {
		clientCPU += sg.clientCPU
	}
	add("loadgen.cpu_us_per_req", ratio(clientCPU*1e6, float64(main.attempted())), "us")

	// serve: probes, then the backend counters.
	probe("serve.parse_ns", "ns")
	probe("serve.write_ns", "ns")
	probe("serve.allocs_per_req", "count")
	probe("serve.submit_deliver_us", "us")
	qc, qs := dh("platform", "serve.queue_ticks")
	add("serve.queue_ticks_mean", ratio(qs, qc), "ticks")
	bc, bs := dh("platform", "serve.dispatch_batch")
	add("serve.dispatch_batch_mean", ratio(bs, bc), "count")
	add("serve.shed_frac", ratio(d("platform", "serve.shed_queue_full")+d("platform", "serve.shed_draining"), attempted), "fraction")

	// threads / proc: the backends' platform registries plus the front's.
	sum := func(name string) float64 { return d("platform", name) + d("front", name) }
	add("threads.yields_per_req", ratio(sum("threads.yields"), served), "count")
	add("threads.dispatches_per_req", ratio(sum("threads.dispatches"), served), "count")
	add("proc.refused_per_req", ratio(sum("proc.refused"), served), "count")

	// shard (zero without a fabric front)
	var fwd []float64
	for _, sg := range res.segs {
		a, b := sg.after.perShard("shard.forwarded"), sg.before.perShard("shard.forwarded")
		for i := range min(len(a), len(b)) {
			if i == len(fwd) {
				fwd = append(fwd, 0)
			}
			fwd[i] += a[i] - b[i]
		}
	}
	var fwdSum, fwdMax float64
	for _, f := range fwd {
		fwdSum += f
		fwdMax = max(fwdMax, f)
	}
	imbalance := 0.0
	if fwdSum > 0 {
		imbalance = fwdMax / (fwdSum / float64(len(fwd)))
	}
	var pagesAfter, pagesBefore []string
	for _, sg := range res.segs {
		pagesAfter = append(pagesAfter, sg.after.fabricz)
		pagesBefore = append(pagesBefore, sg.before.fabricz)
	}
	add("shard.reply_spin_per_req", ratio(d("front", "shard.reply_spin"), served), "count")
	add("shard.reply_park_frac", ratio(d("front", "shard.reply_park"), d("front", "shard.replies")), "fraction")
	add("shard.reply_wait_ticks_p50", histDeltaP50(pagesAfter, pagesBefore, "reply_wait_hist"), "ticks")
	add("shard.stolen_frac", ratio(d("front", "shard.stolen"), fwdSum), "fraction")
	add("shard.steal_abort_frac", ratio(d("front", "shard.steal_aborts"), d("front", "shard.steal_attempts")), "fraction")
	add("shard.forward_imbalance", imbalance, "ratio")
	ringFull := d("front", "shard.ring_full")
	add("shard.ring_full_frac", ratio(ringFull, fwdSum+ringFull), "fraction")
	mainP50 := float64(quantile(main.sorted(), 0.5))
	overhead := 0.0
	if len(fwd) > 0 {
		overhead = mainP50/1e6 - res.probes["serve.submit_deliver_us"]/1e3
	}
	add("shard.front_overhead_ms", overhead, "ms")

	// gcsync / mlheap (zero without -mlalloc).  Pause percentiles are each
	// process's lifetime figures, median over the processes; the max is
	// the largest.
	gcs := d("mlheap", "mlheap.minor_gcs") + d("mlheap", "mlheap.major_gcs")
	add("gcsync.gcs_per_kreq", ratio(gcs*1000, served), "count")
	var p50s, p99s []float64
	var pauseMax float64
	for _, sg := range res.segs {
		if m := pauseRE.FindStringSubmatch(sg.exitOut); m != nil {
			v := make([]float64, 3)
			for i := range v {
				v[i], _ = strconv.ParseFloat(m[i+2], 64)
			}
			p50s, p99s = append(p50s, v[0]), append(p99s, v[1])
			pauseMax = max(pauseMax, v[2])
		}
	}
	add("gcsync.pause_p50_us", median(p50s), "us")
	add("gcsync.pause_p99_us", median(p99s), "us")
	add("gcsync.pause_max_us", pauseMax, "us")
	add("mlheap.copied_words_per_gc", ratio(d("mlheap", "mlheap.copied_words"), gcs), "count")
	probe("mlheap.record_ns", "ns")
	for _, lf := range lockFactories {
		probe(lf.metric, "ns")
	}

	// process level, not gated
	var rss float64
	for _, sg := range res.segs {
		rss = max(rss, sg.rssMB)
	}
	add("process.rss_peak_mb", rss, "MB")
	tracedP50 := float64(quantile(traced.sorted(), 0.5))
	add("trace.overhead_frac", ratio(tracedP50-mainP50, mainP50), "fraction")
	return ms
}

// histDeltaP50 returns the upper bound of the bucket holding the median
// of the observations a /fabricz histogram line gained between each
// pair of pages (after[i] over before[i]); 0 when it gained none.
func histDeltaP50(after, before []string, name string) float64 {
	var bounds []int64
	var delta []float64
	for i := range after {
		b, ca := fabriczHist(after[i], name)
		_, cb := fabriczHist(before[i], name)
		if len(ca) == 0 {
			continue
		}
		bounds = b
		if delta == nil {
			delta = make([]float64, len(ca))
		}
		for k := range min(len(ca), len(delta)) {
			delta[k] += ca[k]
			if k < len(cb) {
				delta[k] -= cb[k]
			}
		}
	}
	total := 0.0
	for _, c := range delta {
		total += c
	}
	if total == 0 {
		return 0
	}
	cum := 0.0
	for i, c := range delta {
		cum += c
		if cum >= total/2 {
			if bounds[i] < 0 && i > 0 {
				return float64(bounds[i-1]) // overflow: report the last bound
			}
			return float64(bounds[i])
		}
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sourceID identifies the tree under test: its git commit when it is a
// git checkout, and always a SHA-256 over the module's Go sources.
func sourceID(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "benchmark") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || filepath.Base(path) == "go.mod" {
			if b, err := os.ReadFile(path); err == nil {
				h.Write([]byte(path))
				h.Write(b)
			}
		}
		return nil
	})
	id := "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		id = "git:" + strings.TrimSpace(string(out)) + " " + id
	}
	return id
}
