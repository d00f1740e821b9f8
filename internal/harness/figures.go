package harness

import (
	"fmt"
	"time"

	"ppbflash/internal/hotness"
	"ppbflash/internal/metrics"
	"ppbflash/internal/nand"
)

// FigureResult bundles a rendered table with the raw numeric series so
// tests and benchmarks can assert on shapes without re-parsing text.
type FigureResult struct {
	// ID names the paper artifact, e.g. "figure-12".
	ID string
	// Table is the human-readable rendering.
	Table *metrics.Table
	// Series holds the raw numbers per named curve.
	Series map[string][]float64
	// Throughput maps every completed run of the figure's sweep, by spec
	// name, to its simulated device-ops-per-second (Result.SimOpsPerSec).
	// Deterministic like Series, but deliberately kept out of it: the
	// golden fixtures pin Series byte-exactly, and throughput is a speed
	// report, not a paper curve. ppbench -json serializes it separately.
	Throughput map[string]float64
}

func newFigure(id string, table *metrics.Table) *FigureResult {
	return &FigureResult{
		ID: id, Table: table,
		Series:     make(map[string][]float64),
		Throughput: make(map[string]float64),
	}
}

func (f *FigureResult) add(series string, v float64) {
	f.Series[series] = append(f.Series[series], v)
}

// recordThroughput stores each run's simulated throughput under its spec
// name, giving every figure a device-ops/sec series without touching the
// golden-pinned Series. Callers record only batches RunAll completed, so
// no result is a skipped placeholder.
func (f *FigureResult) recordThroughput(specs []RunSpec, results []Result) {
	for i, res := range results {
		f.Throughput[specs[i].Name] = res.SimOpsPerSec
	}
}

var paperTraces = []string{"mediaserver", "websql"}

// readTotal and writeTotal select the per-run totals the paper figures
// compare.
func readTotal(r Result) time.Duration  { return r.ReadTotal }
func writeTotal(r Result) time.Duration { return r.WriteTotal }

// Figure12 reproduces the read performance enhancement of PPB over the
// conventional FTL for both traces at 8 KB and 16 KB page sizes
// (speed ratio 2x, the footnote-1 default for current 64-layer parts).
func Figure12(s Scale) (*FigureResult, error) {
	return enhancementFigure(s, "figure-12", "Figure 12: Read Performance Enhancement (ratio 2x)", readTotal)
}

// Figure15 reproduces the write performance enhancement, which the paper
// reports as essentially zero (|delta| well below 1%).
func Figure15(s Scale) (*FigureResult, error) {
	return enhancementFigure(s, "figure-15", "Figure 15: Write Performance Enhancement (ratio 2x)", writeTotal)
}

// enhancementFigure tabulates PPB's enhancement of total, one row per
// trace, one cell per page size.
func enhancementFigure(s Scale, id, title string, total func(Result) time.Duration) (*FigureResult, error) {
	pages := over("%dK", []int{8, 16}, func(r *RunSpec, kb int) { r.Device = s.DeviceConfig(kb<<10, 2.0) }).folded()
	tbl := metrics.NewTable(title, "trace", "8K page size", "16K page size")
	return runSweeps(s, newFigure(id, tbl), sweep{
		prefix: id,
		base:   RunSpec{Prefill: true},
		axes:   []axis{traceAxis(s), pages, pair},
		row: func(f *FigureResult, p point) []any {
			cells := []any{p.labels[0]}
			for j, page := range pages.labels {
				e := metrics.Enhancement(total(p.res[2*j]), total(p.res[2*j+1]))
				f.add(p.labels[0]+"/"+page, e)
				cells = append(cells, fmt.Sprintf("%.2f%%", e*100))
			}
			return cells
		},
	})
}

// latencySweep produces the Figures 13/14/16/17 family: total latency vs
// page access speed difference (2x..5x) for one trace, conventional vs
// PPB, at the Table 1 page size.
func latencySweep(s Scale, id, title string, wl WorkloadBuilder, total func(Result) time.Duration) (*FigureResult, error) {
	ratios := over("%gx", []float64{2, 3, 4, 5}, func(r *RunSpec, ratio float64) { r.Device = s.DeviceConfig(16<<10, ratio) })
	tbl := metrics.NewTable(title, "speed diff", "conventional FTL (s)", "FTL with PPB (s)", "delta")
	return runSweeps(s, newFigure(id, tbl), sweep{
		prefix: id,
		base:   RunSpec{Workload: wl, Prefill: true},
		axes:   []axis{ratios, pair},
		row: func(f *FigureResult, p point) []any {
			cv, pv := total(p.res[0]).Seconds(), total(p.res[1]).Seconds()
			f.add("conventional", cv)
			f.add("ppb", pv)
			return []any{p.labels[0], cv, pv, fmt.Sprintf("%+.2f%%", (pv-cv)/cv*100)}
		},
	})
}

// Figure13 reproduces the media-server read latency sweep.
func Figure13(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-13", "Figure 13: Media Server Trace — Read Latency Comparison", s.MediaWorkload(), readTotal)
}

// Figure14 reproduces the web-server read latency sweep.
func Figure14(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-14", "Figure 14: Web Server Trace — Read Latency Comparison", s.WebSQLWorkload(), readTotal)
}

// Figure16 reproduces the media-server write latency sweep.
func Figure16(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-16", "Figure 16: Media Server Trace — Write Latency Comparison", s.MediaWorkload(), writeTotal)
}

// Figure17 reproduces the web-server write latency sweep.
func Figure17(s Scale) (*FigureResult, error) {
	return latencySweep(s, "figure-17", "Figure 17: Web Server Trace — Write Latency Comparison", s.WebSQLWorkload(), writeTotal)
}

// Figure18 reproduces the erased-block count comparison: PPB must not
// inflate erase counts, i.e. GC efficiency is retained.
func Figure18(s Scale) (*FigureResult, error) {
	tbl := metrics.NewTable("Figure 18: Erased Block Count Comparison",
		"trace", "conventional FTL", "FTL with PPB", "delta")
	return runSweeps(s, newFigure("figure-18", tbl), sweep{
		prefix: "figure-18",
		base:   RunSpec{Device: s.DeviceConfig(16<<10, 2.0), Prefill: true},
		axes:   []axis{traceAxis(s), pair},
		row: func(f *FigureResult, p point) []any {
			tr, conv, ppb := p.labels[0], p.res[0], p.res[1]
			f.add(tr+"/conventional", float64(conv.Erases))
			f.add(tr+"/ppb", float64(ppb.Erases))
			delta := "n/a"
			if conv.Erases > 0 {
				delta = fmt.Sprintf("%+.2f%%", (float64(ppb.Erases)-float64(conv.Erases))/float64(conv.Erases)*100)
			}
			return []any{tr, conv.Erases, ppb.Erases, delta}
		},
	})
}

// MotivationFigure3 quantifies the paper's Figure 3 argument: placing
// hot data in fast pages and cold data in slow pages of the same blocks
// (GreedySpeed) wrecks GC, while hot/cold block separation (with or
// without speed awareness) keeps it cheap.
func MotivationFigure3(s Scale) (*FigureResult, error) {
	tbl := metrics.NewTable("Motivation (Figure 3): GC cost of naive speed placement (websql)",
		"strategy", "GC copies", "erases", "WAF", "read total (s)")
	return runSweeps(s, newFigure("motivation-3", tbl), sweep{
		prefix: "motivation",
		base:   RunSpec{Device: s.DeviceConfig(16<<10, 2.0), Workload: s.WebSQLWorkload(), Prefill: true},
		axes:   []axis{kinds(KindConventional, KindGreedySpeed, KindHotColdSplit, KindPPB)},
		row: func(f *FigureResult, p point) []any {
			kind, res := p.labels[0], p.res[0]
			f.add(kind+"/copies", float64(res.GCCopies))
			f.add(kind+"/erases", float64(res.Erases))
			f.add(kind+"/waf", res.WAF)
			return []any{kind, res.GCCopies, res.Erases, res.WAF, res.ReadTotal.Seconds()}
		},
	})
}

// AblationSplit sweeps the virtual-block split factor K (§3.3.1 notes a
// physical block "can be divided into multiple virtual blocks rather
// than two" at extra bookkeeping cost).
func AblationSplit(s Scale) (*FigureResult, error) {
	ks := []int{2, 4, 8}
	tbl := metrics.NewTable("Ablation: virtual-block split factor (websql, 2x)",
		"K", "read total (s)", "write total (s)", "migrations", "diversions")
	return runSweeps(s, newFigure("ablation-split", tbl), sweep{
		prefix: "ablation-split",
		base:   RunSpec{Device: s.DeviceConfig(16<<10, 2.0), Kind: KindPPB, Workload: s.WebSQLWorkload(), Prefill: true},
		axes:   []axis{over("k%d", ks, func(r *RunSpec, k int) { r.PPBOptions.SplitFactor = k })},
		row: func(f *FigureResult, p point) []any {
			res := p.res[0]
			f.add("read", res.ReadTotal.Seconds())
			f.add("migrations", float64(res.Migrations))
			return []any{fmt.Sprintf("%d", ks[p.idx[0]]), res.ReadTotal.Seconds(), res.WriteTotal.Seconds(),
				res.Migrations, res.Diversions}
		},
	})
}

// AblationIdentifier swaps the first-stage identifier, demonstrating the
// claim that PPB "is compatible with any hot/cold data identification
// mechanism" — and showing how much the identifier quality matters.
func AblationIdentifier(s Scale) (*FigureResult, error) {
	dev := s.DeviceConfig(16<<10, 2.0)
	idents := []hotness.Identifier{
		hotness.SizeCheck{ThresholdBytes: dev.PageSize},
		hotness.NewRecency(4096),
		hotness.Static{Result: hotness.AreaHot},
		hotness.Static{Result: hotness.AreaCold},
	}
	// Point 0 is the conventional baseline every identifier is rated
	// against; point i > 0 runs PPB under idents[i-1].
	ident := axis{labels: []string{"conventional"}, set: func(r *RunSpec, i int) {
		if i > 0 {
			r.Kind, r.PPBOptions.Identifier = KindPPB, idents[i-1]
		}
	}}
	for _, id := range idents {
		ident.labels = append(ident.labels, id.Name())
	}
	var conv Result
	tbl := metrics.NewTable("Ablation: first-stage identifier (websql, 2x)",
		"identifier", "read total (s)", "read enhancement", "fast-read share")
	return runSweeps(s, newFigure("ablation-identifier", tbl), sweep{
		prefix: "ablation-ident",
		base:   RunSpec{Device: dev, Kind: KindConventional, Workload: s.WebSQLWorkload(), Prefill: true},
		axes:   []axis{ident},
		row: func(f *FigureResult, p point) []any {
			res := p.res[0]
			if p.idx[0] == 0 {
				conv = res
				return nil
			}
			e := metrics.Enhancement(conv.ReadTotal, res.ReadTotal)
			f.add(p.labels[0], e)
			return []any{p.labels[0], res.ReadTotal.Seconds(), fmt.Sprintf("%+.2f%%", e*100),
				fmt.Sprintf("%.1f%%", res.FastReadShare*100)}
		},
	})
}

// AblationLayers sweeps the gate-stack layer count at a fixed 2x ratio
// (footnote 1: the speed spread persists as parts grow from 24 to 96+
// layers; PPB only needs the monotone spread, not a specific count).
func AblationLayers(s Scale) (*FigureResult, error) {
	tbl := metrics.NewTable("Ablation: gate stack layers (websql, 2x)",
		"layers", "conventional read (s)", "ppb read (s)", "enhancement")
	return runSweeps(s, newFigure("ablation-layers", tbl), sweep{
		prefix: "ablation-layers",
		base:   RunSpec{Device: s.DeviceConfig(16<<10, 2.0), Workload: s.WebSQLWorkload(), Prefill: true},
		axes: []axis{
			over("%d", []int{24, 48, 64, 96}, func(r *RunSpec, layers int) { r.Device.Layers = layers }),
			{labels: []string{"conv", "ppb"}, set: pair.set, fold: true},
		},
		row: func(f *FigureResult, p point) []any {
			conv, ppb := p.res[0], p.res[1]
			e := metrics.Enhancement(conv.ReadTotal, ppb.ReadTotal)
			f.add("enhancement", e)
			return []any{p.labels[0], conv.ReadTotal.Seconds(), ppb.ReadTotal.Seconds(), fmt.Sprintf("%+.2f%%", e*100)}
		},
	})
}

// ChipSweepCounts is the chip axis of experiment a4.
var ChipSweepCounts = []int{1, 2, 4, 8}

// trimToChipMultiple trims the block count down to a multiple of chips so
// WithChips divides evenly and every point of a chip-spread sweep exports
// exactly the same capacity; never trims below one block per chip.
func trimToChipMultiple(cfg nand.Config, chips int) nand.Config {
	cfg.BlocksPerChip = max(cfg.BlocksPerChip-cfg.BlocksPerChip%chips, chips)
	return cfg
}

// sweepChips is the chip count of the shared multi-chip device of
// experiments a5–a8 and a10 (the a4 sweet spot): queue depth, dispatch,
// dependency chains, suspension and tenant isolation only change the
// timeline when ops can land on different chips, and one device keeps
// the corners of those sweeps directly comparable (a8's planes=1,
// suspend-off corner is the a7 causal baseline).
const sweepChips = 4

// sweepDevice is the Table 1 page size at the 2x ratio spread over
// sweepChips chips.
func sweepDevice(s Scale) nand.Config {
	return trimToChipMultiple(s.DeviceConfig(16<<10, 2.0), sweepChips).WithChips(sweepChips)
}

// ChipSweep (experiment a4) measures what the paper-scale figures cannot
// express on a single serial chip: per-request tail latency and simulated
// makespan as the same device capacity is spread over 1, 2, 4 and 8 chips
// with channel-striped block allocation, for both traces, conventional vs
// PPB. Chip-parallel service lets garbage-collection reads, programs and
// multi-millisecond erases overlap host work on other chips, so makespan
// falls as chips increase while per-page cost totals stay comparable.
func ChipSweep(s Scale) (*FigureResult, error) {
	// Trim to a multiple of the widest sweep point so all points export
	// the same capacity.
	base := trimToChipMultiple(s.DeviceConfig(16<<10, 2.0), ChipSweepCounts[len(ChipSweepCounts)-1])
	chips := over("%dc", ChipSweepCounts, func(r *RunSpec, n int) { r.Device = base.WithChips(n) })
	tbl := metrics.NewTable("Experiment a4: chip-parallel tail latency and makespan (ratio 2x)",
		"trace", "chips", "conv makespan (s)", "ppb makespan (s)", "read enhancement", "ppb read p99", "ppb write p99")
	return runSweeps(s, newFigure("a4-chip-sweep", tbl), sweep{
		prefix: "chip-sweep",
		base:   RunSpec{Prefill: true},
		axes:   []axis{traceAxis(s), chips, pair},
		row: func(f *FigureResult, p point) []any {
			tr, conv, ppb := p.labels[0], p.res[0], p.res[1]
			e := metrics.Enhancement(conv.ReadTotal, ppb.ReadTotal)
			f.addMetrics(tr, p.res, "makespan/conv", "makespan/ppb", "readp99/ppb", "writep99/ppb")
			f.add(tr+"/enhancement", e)
			return []any{tr, ChipSweepCounts[p.idx[1]], conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
				fmt.Sprintf("%+.2f%%", e*100), ppb.ReadP99, ppb.WriteP99}
		},
	})
}

// QDSweepDepths is the queue-depth axis of experiment a5.
var QDSweepDepths = []int{1, 4, 16, 64}

// QDSweep (experiment a5) measures the queue-depth axis the closed
// QD-1 host could never exercise: the same 4-chip device, both traces,
// conventional vs PPB, with the host keeping 1, 4, 16 and 64 requests
// outstanding. Makespan falls as the depth grows (more chip overlap)
// while per-request completion latency and the newly split-out queueing
// delay grow — tail latency finally responds to load, not just to GC
// interference.
func QDSweep(s Scale) (*FigureResult, error) {
	tbl := metrics.NewTable("Experiment a5: queue-depth sweep on 4 chips (ratio 2x)",
		"trace", "QD", "conv makespan (s)", "ppb makespan (s)", "ppb read p99", "ppb write p99", "conv qdelay p99", "ppb qdelay p99")
	return runSweeps(s, newFigure("a5-qd-sweep", tbl), sweep{
		prefix: "qd-sweep",
		base:   RunSpec{Device: sweepDevice(s), Prefill: true},
		axes:   []axis{traceAxis(s), qdAxis(QDSweepDepths), pair},
		row: func(f *FigureResult, p point) []any {
			conv, ppb := p.res[0], p.res[1]
			f.addMetrics(p.labels[0], p.res, "makespan/conv", "makespan/ppb", "readp99/ppb", "writep99/ppb",
				"qdelayp99/conv", "qdelayp99/ppb")
			return []any{p.labels[0], QDSweepDepths[p.idx[1]], conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
				ppb.ReadP99, ppb.WriteP99, conv.QueueDelayP99, ppb.QueueDelayP99}
		},
	})
}

// DispatchPolicies is the policy axis of experiments a6 and a7, frozen
// to the single-tenant policies those goldens were recorded over. It
// deliberately does NOT alias vblock.DispatchPolicyNames anymore:
// tenant-partition joined the registry for the multi-tenant sweep (a10),
// and on a single-tenant run it degenerates to least-loaded — sweeping
// it in a6/a7 would double a column and shift the golden fixtures for
// no information. TestDispatchByName still covers every registered name.
var DispatchPolicies = []string{"striped", "least-loaded", "hotcold-affinity"}

// DispatchSweepDepths is the queue-depth axis of experiment a6: deep
// enough that block placement decides how much of the queue overlaps.
var DispatchSweepDepths = []int{4, 16}

// DispatchSweep (experiment a6) measures the chip-dispatch policy axis:
// the same 4-chip device, both traces, conventional vs PPB, each
// dispatch policy, at queue depths 4 and 16. Round-robin striping is
// placement-blind — a hot chip stays hot no matter what the clocks say —
// so on the skewed websql trace the least-loaded policy opens fresh
// blocks on idle chips instead, lowering makespan and the queueing-delay
// tail; hot/cold affinity trades some of that balance for isolating hot
// host writes from cold GC erases.
func DispatchSweep(s Scale) (*FigureResult, error) {
	tbl := metrics.NewTable("Experiment a6: chip-dispatch policy x queue depth on 4 chips (ratio 2x)",
		"trace", "dispatch", "QD", "conv makespan (s)", "ppb makespan (s)", "conv qdelay p99", "ppb qdelay p99", "ppb read p99")
	return runSweeps(s, newFigure("a6-dispatch-sweep", tbl), sweep{
		prefix: "dispatch-sweep",
		base:   RunSpec{Device: sweepDevice(s), Prefill: true},
		axes:   []axis{traceAxis(s), dispatchAxis(DispatchPolicies), qdAxis(DispatchSweepDepths), pair},
		row: func(f *FigureResult, p point) []any {
			conv, ppb := p.res[0], p.res[1]
			f.addMetrics(p.key(2), p.res, "makespan/conv", "makespan/ppb", "qdelayp99/conv", "qdelayp99/ppb", "readp99/ppb")
			return []any{p.labels[0], p.labels[1], DispatchSweepDepths[p.idx[2]], conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
				conv.QueueDelayP99, ppb.QueueDelayP99, ppb.ReadP99}
		},
	})
}

// CausalDependencyModels is the dependency axis of experiment a7 (the
// names RunSpec.Dependency accepts, legacy first so the sweep reads as
// before/after).
var CausalDependencyModels = []string{"legacy", "causal"}

// CausalDeferModes is the erase-deferral axis of experiment a7, rendered
// in series keys as "defer-off"/"defer-on".
var CausalDeferModes = []bool{false, true}

// causalSweepQD is the host queue depth of experiment a7: deep enough
// (>= 4) that host reads actually queue behind GC erases, which is the
// contention erase deferral exists to relieve.
const causalSweepQD = 8

// causalDeferName renders the deferral axis for spec names and series keys.
func causalDeferName(on bool) string {
	if on {
		return "defer-on"
	}
	return "defer-off"
}

// CausalSweep (experiment a7) measures the scheduling-model axes this PR
// added: dependency model (legacy unchained booking vs causal GC
// read -> program -> erase chains) x erase deferral (head-of-line erases
// vs per-chip deferred queues committed on idle) x dispatch policy, on
// the 4-chip device at queue depth 8, websql, conventional vs PPB. The
// causal model lengthens GC chains (cross-chip copies can no longer
// start early), raising the write tail it used to understate; erase
// deferral moves multi-millisecond erases out of the read path, cutting
// read p99 — without changing a single erase, which is asserted under
// the timing-independent striped placement.
func CausalSweep(s Scale) (*FigureResult, error) {
	deps := over("%s", CausalDependencyModels, func(r *RunSpec, dep string) { r.Dependency = dep })
	deferral := axis{set: func(r *RunSpec, i int) { r.DeferErases = CausalDeferModes[i] }}
	for _, on := range CausalDeferModes {
		deferral.labels = append(deferral.labels, causalDeferName(on))
	}
	tbl := metrics.NewTable("Experiment a7: dependency model x erase deferral x dispatch (websql, 4 chips, QD 8)",
		"dependency", "deferral", "dispatch", "conv makespan (s)", "ppb makespan (s)", "conv read p99", "ppb read p99", "conv erases", "ppb erases")
	return runSweeps(s, newFigure("a7-causal-sweep", tbl), sweep{
		prefix: "causal-sweep",
		base:   RunSpec{Device: sweepDevice(s), Workload: s.WebSQLWorkload(), Prefill: true, QueueDepth: causalSweepQD},
		axes:   []axis{deps, deferral, dispatchAxis(DispatchPolicies), pair},
		row: func(f *FigureResult, p point) []any {
			conv, ppb := p.res[0], p.res[1]
			f.addMetrics(p.key(2), p.res, "makespan/conv", "makespan/ppb", "readp99/conv", "readp99/ppb", "writep99/ppb",
				"erases/conv", "erases/ppb")
			return []any{p.labels[0], p.labels[1], p.labels[2], conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
				conv.ReadP99, ppb.ReadP99, conv.Erases, ppb.Erases}
		},
	})
}

// IntraChipPlaneCounts is the plane axis of experiment a8: serial chips
// first, so the sweep reads as the pre-plane baseline plus overlap.
var IntraChipPlaneCounts = []int{1, 2, 4}

// IntraChipSuspendModes is the suspend-policy axis of experiment a8
// (the names RunSpec.Suspend accepts; "off" is the a7 causal baseline).
var IntraChipSuspendModes = []string{"off", "erase"}

// intraChipQD is the host queue depth of experiment a8: deep enough
// that host reads actually land while multi-millisecond GC erases are
// in flight — the contention suspend-resume exists to relieve.
const intraChipQD = 8

// IntraChipSweep (experiment a8) measures the intra-chip parallelism
// axes: plane count (ops on distinct planes of one chip overlap within
// the reordering window) x erase suspend policy (an incoming read may
// preempt an in-flight erase at suspend/resume cost), on the 4-chip
// device at queue depth 8, websql, conventional vs PPB, causal GC
// dependencies, erase deferral off so erases sit head-of-line — exactly
// where suspension bites. Striped dispatch keeps block placement
// timing-independent, so erase counts must be identical across every
// cell of the sweep: planes and suspension move only time, never data.
func IntraChipSweep(s Scale) (*FigureResult, error) {
	dev := sweepDevice(s)
	planes := over("p%d", IntraChipPlaneCounts, func(r *RunSpec, n int) { r.Device = dev.WithPlanes(n) })
	suspend := over("%s", IntraChipSuspendModes, func(r *RunSpec, mode string) { r.Suspend = mode })
	tbl := metrics.NewTable("Experiment a8: plane count x erase suspend (websql, 4 chips, QD 8)",
		"planes", "suspend", "conv makespan (s)", "ppb makespan (s)", "conv read p99", "ppb read p99", "conv suspends", "ppb suspends", "conv erases", "ppb erases")
	return runSweeps(s, newFigure("a8-intrachip-sweep", tbl), sweep{
		prefix: "intrachip-sweep",
		base:   RunSpec{Workload: s.WebSQLWorkload(), Prefill: true, QueueDepth: intraChipQD, Dispatch: "striped"},
		axes:   []axis{planes, suspend, pair},
		row: func(f *FigureResult, p point) []any {
			conv, ppb := p.res[0], p.res[1]
			f.addMetrics(p.key(2), p.res, "makespan/conv", "makespan/ppb", "readp99/conv", "readp99/ppb",
				"suspends/conv", "suspends/ppb", "erases/conv", "erases/ppb")
			return []any{IntraChipPlaneCounts[p.idx[0]], p.labels[1], conv.Makespan.Seconds(), ppb.Makespan.Seconds(),
				conv.ReadP99, ppb.ReadP99, conv.Suspends, ppb.Suspends, conv.Erases, ppb.Erases}
		},
	})
}

// TableOne renders the experimental parameters (the paper's Table 1).
func TableOne() *FigureResult {
	cfg := Scale{DeviceDivisor: 1, WriteTurnover: 1}.DeviceConfig(16<<10, 2.0)
	tbl := metrics.NewTable("Table 1: Experimental Parameters", "item", "specification")
	tbl.AddRow("Flash size", fmt.Sprintf("%d GB", cfg.TotalBytes()>>30))
	tbl.AddRow("Page size", fmt.Sprintf("%d KB", cfg.PageSize>>10))
	tbl.AddRow("Number of pages per block", fmt.Sprintf("%d", cfg.PagesPerBlock))
	tbl.AddRow("Page write latency", fmt.Sprintf("%v", cfg.ProgramLatency))
	tbl.AddRow("Page read latency", fmt.Sprintf("%v", cfg.ReadLatency))
	tbl.AddRow("Data transfer rate", "533 M (listed per Table 1; not charged per op — README.md §5)")
	tbl.AddRow("Block erase time", fmt.Sprintf("%v", cfg.EraseLatency))
	tbl.AddRow("Gate stack layers", fmt.Sprintf("%d", cfg.Layers))
	return newFigure("table-1", tbl)
}

// Experiments maps experiment IDs to their functions; cmd/ppbench and the
// benchmarks iterate this.
// Paper figures 12–18 and motivation figure 3 run at paper scale (minutes
// each under -short-unfriendly replay), so their full series are pinned by
// shape tests at smoke scale and by the small-device testdata/figures pins
// instead of quick-scale goldens; the a* ablation and sweep rows below are
// golden-pinned (testdata/golden/<id>.json, re-record with
// go test ./internal/harness -run TestGoldenFigures -update).
var Experiments = map[string]func(Scale) (*FigureResult, error){
	"12":  Figure12,          //flashvet:nogolden — paper-scale; shape pinned by TestFigure12ShapeHolds
	"13":  Figure13,          //flashvet:nogolden — paper-scale; hot/cold split pinned by TestFigure12ShapeHolds companions and determinism tests
	"14":  Figure14,          //flashvet:nogolden — paper-scale; shape pinned by TestFigure14ShapeHolds
	"15":  Figure15,          //flashvet:nogolden — paper-scale; write-delta pinned by TestFigure15WriteDeltaSmall
	"16":  Figure16,          //flashvet:nogolden — paper-scale; replay path covered by TestFiguresDeterministicAcrossParallelism
	"17":  Figure17,          //flashvet:nogolden — paper-scale; replay path covered by TestFiguresDeterministicAcrossParallelism
	"18":  Figure18,          //flashvet:nogolden — paper-scale; erase counts pinned by TestFigure18EraseCounts
	"3":   MotivationFigure3, //flashvet:nogolden — paper-scale; shape pinned by TestMotivationFigure3Shape
	"a1":  AblationSplit,
	"a2":  AblationIdentifier,
	"a3":  AblationLayers,
	"a4":  ChipSweep,
	"a5":  QDSweep,
	"a6":  DispatchSweep,
	"a7":  CausalSweep,
	"a8":  IntraChipSweep,
	"a9":  ReliabilitySweep,
	"a10": TenantSweep,
}

// ExperimentOrder is the presentation order for "run everything".
var ExperimentOrder = []string{"12", "13", "14", "15", "16", "17", "18", "3", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9", "a10"}
