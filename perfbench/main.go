// Command perfbench is the repository benchmark: it simulates one
// workload repeatedly for a fixed time and prints the simulator's host
// speed and the simulated outcomes as one JSON line.
//
//	perfbench -workload websql-ppb -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it times harness.Run end to end and reports the
// end-to-end metrics. With -trace 1 it alternates untraced harness.Run
// calls with a traced copy of the same pipeline and reports per-layer
// metrics. Host times other than setup_s are scaled to a reference host
// speed measured by a fixed kernel run beside each simulation (see
// refNominal); the raw times are printed on a line of their own. Every run checks the simulator's consistency and that the
// pipeline's simulated results equal harness.Run's; a failed check makes
// it exit 1. See BENCHMARK.json for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"ppbflash/internal/harness"
)

// minIterations is the fewest simulations a run times, however long
// they take.
const minIterations = 3

// hotnessRounds is how many times a traced run replays the hotness layer
// on its own.
const hotnessRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: websql-ppb, websql-greedy or tenants4-qd16")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	commit := flag.String("commit", "unknown", "commit recorded with the report")
	out := flag.String("out", "", "directory for the span dump of a traced run (none if empty)")
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("-seconds %d < 1", *seconds)
	}
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("-trace %d is neither 0 nor 1", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	s := w.scale
	s.Seed = *seed
	host, _ := json.Marshal(map[string]any{
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": *commit, "seed": *seed, "workload": w.name,
	})
	fmt.Println("host", string(host))

	b := &bench{w: w, s: s, window: time.Duration(*seconds) * time.Second}
	var m map[string]metric
	if *traced == 1 {
		m = b.perLayer(*out)
	} else {
		m = b.endToEnd()
	}
	// A run that failed before counting its requests still attempted the
	// ones that failed.
	rep := report{Correct: b.failed == 0, Attempted: max(b.attempted, b.failed), Failed: b.failed, Metrics: m}
	line, _ := json.Marshal(rep)
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// bench is one run of the benchmark on one workload and seed.
type bench struct {
	w      benchWorkload
	s      harness.Scale
	window time.Duration

	attempted, failed int // requests
}

// fail records a failed simulation or check of requests requests.
func (b *bench) fail(requests int, err error) {
	if requests < 1 {
		requests = 1
	}
	b.failed += requests
	fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
}

// verify runs the consistency checks on p and compares its simulated
// result with harness.Run's.
func (b *bench) verify(p *pipelineRun, want harness.Result) {
	err := p.check()
	if got := p.res.Canonical(); got != want.Canonical() {
		err = errors.Join(err, fmt.Errorf("pipeline result differs from harness.Run:\n got %+v\nwant %+v", got, want.Canonical()))
	}
	if err != nil {
		b.fail(p.requests, err)
	}
}

// endToEnd times harness.Run for the measuring window, then replays the
// same workload once through the pipeline to check the outcome. The
// reference kernel runs before and after every simulation.
func (b *bench) endToEnd() map[string]metric {
	spec := b.w.spec(b.s)
	var first harness.Result
	var setup, replay, opsPerSec, allocMB, peakMB, rawReplay []float64
	k := newRefKernel()
	refs := []float64{k.run()}
	start := time.Now()
	for i := 0; i < minIterations || time.Since(start) < b.window; i++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		stop := watchHeap()
		t0 := time.Now()
		res, err := harness.Run(spec)
		wall := time.Since(t0)
		peak := stop()
		runtime.ReadMemStats(&m1)
		if err != nil {
			b.fail(0, err)
			return nil
		}
		if i == 0 {
			first = res
		} else if res.Canonical() != first.Canonical() {
			b.fail(0, fmt.Errorf("iteration %d simulated a different result than iteration 0", i))
		}
		refs = append(refs, k.run())
		f := scale(refs[i], refs[i+1])
		// Set-up is mostly prefill, whose speed the host's drift barely
		// moves, so it stays wall time: scaling it only added the
		// kernel's own noise.
		setup = append(setup, (wall - res.ReplayWall).Seconds())
		rawReplay = append(rawReplay, res.ReplayWall.Seconds())
		replay = append(replay, rawReplay[i]*f)
		opsPerSec = append(opsPerSec, float64(res.DeviceOps)/replay[i])
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		peakMB = append(peakMB, peak)
	}
	p, err := runPipeline(b.w, b.s, &tracer{spans: make([]span, 0, spanHint(first))})
	if err != nil {
		b.fail(0, err)
		return nil
	}
	b.verify(p, first)
	b.attempted = p.requests * (len(replay) + 1)
	printRaw(map[string]float64{"replay_s": median(rawReplay),
		"ref_kernel_s": median(refs), "simulations": float64(len(replay))})
	r := first
	return map[string]metric{
		"setup_s":           {median(setup), "s"},
		"replay_s":          {median(replay), "s"},
		"device_ops_per_s":  {median(opsPerSec), "1/s"},
		"alloc_mb":          {median(allocMB), "MB"},
		"peak_heap_mb":      {median(peakMB), "MB"},
		"sim_read_total_s":  {r.ReadTotal.Seconds(), "sim_s"},
		"sim_write_total_s": {r.WriteTotal.Seconds(), "sim_s"},
		"sim_read_p50_us":   {us(r.ReadP50), "sim_us"},
		"sim_read_p99_us":   {us(r.ReadP99), "sim_us"},
		"sim_write_p99_us":  {us(r.WriteP99), "sim_us"},
		"sim_makespan_s":    {r.Makespan.Seconds(), "sim_s"},
		"waf":               {r.WAF, "ratio"},
		"erases":            {float64(r.Erases), "count"},
		"fast_read_share":   {r.FastReadShare, "ratio"},
	}
}

// perLayer alternates an untraced harness.Run with a traced pipeline run
// for the measuring window. It reports the layers of the traced run with
// the median traced replay time, so that its host-time layer metrics add
// up to that run's replay time. The spans of the last traced run are
// written to dir. The hotness replay runs after the window, so that no
// simulation runs beside its page list.
func (b *bench) perLayer(dir string) map[string]metric {
	spec := b.w.spec(b.s)
	tr := &tracer{}
	var untraced, rawUntraced []float64
	var runs []map[string]metric
	var logicalPages uint64
	k := newRefKernel()
	refs := []float64{k.run()}
	start := time.Now()
	for i := 0; i < minIterations || time.Since(start) < b.window; i++ {
		// Drop the last traced run's spans, so that harness.Run runs on
		// the heap the end-to-end runs see.
		tr.spans = nil
		runtime.GC()
		want, err := harness.Run(spec)
		if err != nil {
			b.fail(0, err)
			return nil
		}
		refs = append(refs, k.run())
		rawUntraced = append(rawUntraced, want.ReplayWall.Seconds())
		untraced = append(untraced, want.ReplayWall.Seconds()*scale(refs[2*i], refs[2*i+1]))
		tr.spans = make([]span, 0, spanHint(want))
		runtime.GC()
		p, err := runPipeline(b.w, b.s, tr)
		if err != nil {
			b.fail(0, err)
			return nil
		}
		b.verify(p, want)
		b.attempted += 2 * p.requests
		logicalPages = p.f.LogicalPages()
		cost := calibrate(p.f.Manager(), topKind(spec))
		refs = append(refs, k.run())
		runs = append(runs, layerMetrics(p, tr, cost, scale(refs[2*i+1], refs[2*i+2])))
	}
	if dir != "" {
		if err := tr.writeSpans(filepath.Join(dir, "spans-"+b.w.name+".bin")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	tr.spans = nil
	printRaw(map[string]float64{"replay_s": median(rawUntraced), "ref_kernel_s": median(refs),
		"simulations": float64(len(runs))})
	sort.Slice(runs, func(i, j int) bool {
		return runs[i]["bench.traced_replay_s"].Value < runs[j]["bench.traced_replay_s"].Value
	})
	out := runs[(len(runs)-1)/2]
	out["bench.trace_overhead"] = metric{out["bench.traced_replay_s"].Value / median(untraced), "ratio"}
	out["fail_ratio"] = metric{float64(b.failed) / float64(max(b.attempted, 1)), "ratio"}

	ops := pageOps(spec, logicalPages*uint64(spec.Device.PageSize))
	var nsPerOp []float64
	var calls int
	for range hotnessRounds {
		var d time.Duration
		calls, d = replayHotness(ops, logicalPages, spec.Device.PageSize)
		refs = append(refs, k.run())
		nsPerOp = append(nsPerOp, float64(d.Nanoseconds())*scale(refs[len(refs)-2], refs[len(refs)-1])/float64(calls))
	}
	out["hotness.ops"] = metric{float64(calls), "count"}
	out["hotness.ns_per_op"] = metric{median(nsPerOp), "ns"}
	return out
}

// layerMetrics reports the layers of one traced pipeline run, with the
// tracer's cost per call taken out of the layer times. Replay host times
// are scaled to the reference host by f; prefill stays wall time, like
// setup_s.
func layerMetrics(p *pipelineRun, tr *tracer, cost [numKinds]spanCost, f float64) map[string]metric {
	m := map[string]metric{}
	add := func(name, unit string, v float64) { m[name] = metric{v, unit} }
	host := func(d time.Duration) float64 { return d.Seconds() * f }
	total, self, calls, overhead := tr.layerTimes(cost)
	res, st, vbm := p.res, p.f.Stats(), p.f.Manager()
	dev := p.f.Device()
	ds := dev.Stats()

	add("workload.requests", "count", float64(p.requests))
	add("workload.next_s", "s", host(self[kindNext]))
	add("trace.compositor_self_s", "s", host(self[kindCompose]))

	add("harness.prefill_s", "s", total[kindPrefill].Seconds())
	add("harness.replay_self_s", "s", host(self[kindReplay]))
	add("bench.traced_replay_s", "s", host(total[kindReplay]))
	add("bench.tracer_s", "s", host(overhead))
	add("sched.events", "count", float64(res.ReplayEvents))
	add("sched.events_per_request", "ratio", float64(res.ReplayEvents)/float64(p.requests))
	add("metrics.read_samples", "count", float64(p.rm.ReadLatency.Count()))
	add("metrics.write_samples", "count", float64(p.rm.WriteLatency.Count()))

	add("ftl.write_calls", "count", float64(calls[kindWrite]+calls[kindGCWrite]))
	add("ftl.write_s", "s", host(self[kindWrite]+self[kindGCWrite]))
	add("ftl.read_calls", "count", float64(calls[kindRead]))
	add("ftl.read_s", "s", host(self[kindRead]))
	add("ftl.gc_write_calls", "count", float64(calls[kindGCWrite]))
	add("ftl.gc_write_s", "s", host(self[kindGCWrite]))
	add("ftl.gc_runs", "count", float64(st.GCRuns.Value()))
	add("ftl.gc_copies", "count", float64(st.GCCopies.Value()))
	add("ftl.gc_erases", "count", float64(st.GCErases.Value()))
	add("ftl.gc_copies_per_erase", "ratio", float64(st.GCCopies.Value())/float64(max(st.GCErases.Value(), 1)))
	add("ftl.fast_reads", "count", float64(st.FastReads.Value()))
	add("ftl.slow_reads", "count", float64(st.SlowReads.Value()))
	add("ftl.unmapped_reads", "count", float64(st.UnmappedReads.Value()))
	add("core.migrations", "count", float64(res.Migrations))
	add("core.diversions", "count", float64(res.Diversions))
	add("core.demotions", "count", float64(res.Demotions))

	minChip, maxChip := vbm.FreeBlocksOnChip(0), vbm.FreeBlocksOnChip(0)
	for c := 1; c < vbm.Chips(); c++ {
		minChip = min(minChip, vbm.FreeBlocksOnChip(c))
		maxChip = max(maxChip, vbm.FreeBlocksOnChip(c))
	}
	add("vblock.free_blocks_min", "count", float64(tr.freeMin))
	add("vblock.free_blocks_end", "count", float64(vbm.FreeBlocks()))
	add("vblock.retired_blocks", "count", float64(vbm.RetiredBlocks()))
	add("vblock.chip_free_spread", "count", float64(maxChip-minChip))

	readBusy := ds.ReadTime.Total - p.base.ReadTime.Total
	progBusy := ds.ProgTime.Total - p.base.ProgTime.Total
	eraseBusy := ds.EraseTime.Total - p.base.EraseTime.Total
	add("nand.reads", "count", float64(ds.Reads.Value()-p.base.Reads.Value()))
	add("nand.programs", "count", float64(ds.Programs.Value()-p.base.Programs.Value()))
	add("nand.erases", "count", float64(ds.Erases.Value()-p.base.Erases.Value()))
	add("nand.read_busy_s", "sim_s", readBusy.Seconds())
	add("nand.program_busy_s", "sim_s", progBusy.Seconds())
	add("nand.erase_busy_s", "sim_s", eraseBusy.Seconds())
	add("nand.chip_utilisation", "ratio",
		(readBusy+progBusy+eraseBusy).Seconds()/(float64(dev.Config().Chips)*res.Makespan.Seconds()))
	add("nand.suspends", "count", float64(res.Suspends))
	add("nand.queue_delay_p99_us", "sim_us", us(res.QueueDelayP99))
	return m
}

// watchHeap samples the bytes held by heap objects every two
// milliseconds until the returned stop is called; stop returns, in MB,
// how far the largest sample rose above the heap at the start, which
// holds the benchmark's own state.
func watchHeap() (stop func() float64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	base := sample[0].Value.Uint64()
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		most := base
		for {
			metrics.Read(sample)
			most = max(most, sample[0].Value.Uint64())
			select {
			case <-done:
				peak <- most
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(<-peak-base) / 1e6
	}
}

// printRaw prints the unscaled host times of the run on a line of its
// own, before the result.
func printRaw(raw map[string]float64) {
	line, _ := json.Marshal(raw)
	fmt.Println("raw", string(line))
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
