// Package ppbflash is a trace-driven simulator for 3D charge-trap NAND
// flash with the asymmetric per-layer page access speed characteristic,
// and a full implementation of the Progressive Performance Boosting (PPB)
// FTL strategy from:
//
//	Shuo-Han Chen, Yen-Ting Chen, Hsin-Wen Wei, Wei-Kuan Shih.
//	"Boosting the Performance of 3D Charge Trap NAND Flash with
//	Asymmetric Feature Process Size Characteristic." DAC 2017.
//
// This root package is the stable facade over the implementation
// packages: device model (internal/nand), FTL framework and baselines
// (internal/ftl), the PPB strategy (internal/core), hot/cold
// identification (internal/hotness), synthetic MSR-style workloads
// (internal/workload), and the experiment harness (internal/harness).
//
// # Quick start
//
//	cfg := ppbflash.TableOneConfig().Scaled(64) // 1 GB-class device
//	dev, _ := ppbflash.NewDevice(cfg)
//	f, _ := ppbflash.NewPPB(dev, ppbflash.PPBOptions{})
//	f.Write(0, 512)   // small write -> hot area
//	f.Read(0)         // promotes to iron-hot
//
// See examples/ for runnable scenarios and cmd/ppbench for regenerating
// every figure of the paper.
package ppbflash

import (
	"ppbflash/internal/core"
	"ppbflash/internal/ftl"
	"ppbflash/internal/harness"
	"ppbflash/internal/hotness"
	"ppbflash/internal/metrics"
	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
	"ppbflash/internal/vblock"
	"ppbflash/internal/workload"
)

// Device model (internal/nand).
type (
	// DeviceConfig describes the geometry and timing of a simulated 3D
	// charge-trap NAND device.
	DeviceConfig = nand.Config
	// Device is a simulated 3D charge-trap NAND device.
	Device = nand.Device
	// PPN is a flat physical page number.
	PPN = nand.PPN
	// BlockID is a flat physical block number.
	BlockID = nand.BlockID
	// OOB is the per-page out-of-band metadata.
	OOB = nand.OOB
)

// NewDevice builds a device from a validated config.
func NewDevice(cfg DeviceConfig) (*Device, error) { return nand.NewDevice(cfg) }

// TableOneConfig returns the paper's Table 1 parameter set (64 GB, 16 KB
// pages, 384 pages/block, 49 µs read, 600 µs program, 4 ms erase).
func TableOneConfig() DeviceConfig { return nand.TableOneConfig() }

// FTL framework (internal/ftl).
type (
	// FTL is the host-visible flash-translation-layer interface.
	FTL = ftl.FTL
	// FTLOptions tunes over-provisioning, garbage collection, chip
	// dispatch and the GC scheduling model (dependency chains, erase
	// deferral).
	FTLOptions = ftl.Options
	// DependencyModel selects how GC relocation chains are scheduled on
	// the device's per-chip clocks (DepCausal or DepLegacy).
	DependencyModel = ftl.DependencyModel
	// FTLStats are the shared cost and activity counters of an FTL.
	FTLStats = ftl.Stats
	// Conventional is the speed-oblivious baseline FTL.
	Conventional = ftl.Conventional
	// GreedySpeed is the paper's Figure 3 strawman (naive speed placement).
	GreedySpeed = ftl.GreedySpeed
	// HotColdSplit is hot/cold block separation without speed awareness.
	HotColdSplit = ftl.HotColdSplit
)

// GC dependency models (FTLOptions.Dependency): causal chains each GC
// relocation's program behind its source read and the victim erase
// behind the last relocation; legacy books every op unchained.
const (
	DepCausal = ftl.DepCausal
	DepLegacy = ftl.DepLegacy
)

// DependencyByName resolves a dependency model from its name ("causal",
// "legacy") — the spelling RunSpec.Dependency and flashsim -dependency
// accept.
func DependencyByName(name string) (DependencyModel, error) { return ftl.DependencyByName(name) }

// NewConventional builds the paper's baseline FTL.
func NewConventional(dev *Device, opts FTLOptions) (*Conventional, error) {
	return ftl.NewConventional(dev, opts)
}

// NewGreedySpeed builds the naive speed-placement strawman.
func NewGreedySpeed(dev *Device, opts FTLOptions, ident Identifier) (*GreedySpeed, error) {
	return ftl.NewGreedySpeed(dev, opts, ident)
}

// NewHotColdSplit builds the separation-only ablation FTL.
func NewHotColdSplit(dev *Device, opts FTLOptions, ident Identifier) (*HotColdSplit, error) {
	return ftl.NewHotColdSplit(dev, opts, ident)
}

// Chip-dispatch policies (internal/vblock): where fresh blocks — and
// with them every write stream — land on a multi-chip device.
type (
	// DispatchPolicy selects the chip of every fresh block allocation.
	DispatchPolicy = vblock.DispatchPolicy
	// Striped is the default round-robin channel striping.
	Striped = vblock.Striped
	// LeastLoaded opens fresh blocks on the chip whose service clock
	// frees earliest.
	LeastLoaded = vblock.LeastLoaded
	// HotColdAffinity pins hot-stream pools to a chip subset so cold GC
	// traffic does not queue behind hot host writes.
	HotColdAffinity = vblock.HotColdAffinity
	// TenantPartition carves the chips into contiguous per-tenant ranges
	// and confines each tenant's allocations — and the GC they cascade
	// into — to its own range (multi-tenant QoS isolation).
	TenantPartition = vblock.TenantPartition
)

// DispatchByName resolves a built-in dispatch policy from its name
// ("striped", "least-loaded", "hotcold-affinity", "tenant-partition") —
// the spelling RunSpec.Dispatch and flashsim -dispatch accept.
func DispatchByName(name string) (DispatchPolicy, error) { return vblock.DispatchByName(name) }

// DispatchPolicyNames lists the built-in dispatch policies in
// presentation order (the a6 sweep's policy axis).
var DispatchPolicyNames = vblock.DispatchPolicyNames

// DependencyModelNames lists the GC dependency models in presentation
// order — the spellings DependencyByName accepts.
var DependencyModelNames = ftl.DependencyModelNames

// Reliability model (internal/nand) and wear leveling (internal/ftl).
type (
	// ReliabilityConfig parameterizes the layer-aware reliability model:
	// per-page RBER from layer skew, P/E cycling and retention age, read
	// retry with ECC-decode latency, and bad-block retirement thresholds.
	ReliabilityConfig = nand.ReliabilityConfig
	// ReliabilityStats counts retried, uncorrectable and retired
	// outcomes under an enabled reliability model.
	ReliabilityStats = nand.ReliabilityStats
	// WearPolicy selects the GC wear-leveling policy.
	WearPolicy = ftl.WearPolicy
)

// Wear-leveling policies (FTLOptions.Wear): none keeps the historic
// wear tie-break only; wear-aware relaxes greedy victim selection
// toward the least-worn block among the most-invalid candidates;
// threshold-swap additionally recycles cold, fully-valid blocks once
// the wear spread crosses FTLOptions.WearThreshold.
const (
	WearNone          = ftl.WearNone
	WearAware         = ftl.WearAware
	WearThresholdSwap = ftl.WearThresholdSwap
)

// WearByName resolves a wear policy from its name ("none",
// "wear-aware", "threshold-swap") — the spelling RunSpec.Wear and
// flashsim -wear accept.
func WearByName(name string) (WearPolicy, error) { return ftl.WearByName(name) }

// WearPolicyNames lists the wear policies in presentation order (the a9
// sweep's wear axis).
var WearPolicyNames = ftl.WearPolicyNames

// ReliabilityProfileByName resolves a built-in reliability preset from
// its name ("off", "low", "high") — the spelling RunSpec.Reliability
// and flashsim -reliability accept.
func ReliabilityProfileByName(name string) (ReliabilityConfig, error) {
	return nand.ReliabilityProfileByName(name)
}

// ReliabilityProfileNames lists the built-in reliability presets in
// presentation order (the a9 sweep's profile axis).
var ReliabilityProfileNames = nand.ReliabilityProfileNames

// Intra-chip parallelism (internal/nand): multi-plane overlap and
// program/erase suspend-resume.

// SuspendPolicy selects which in-flight operation kinds an incoming
// read may preempt (Device.SetSuspend, FTLOptions.Suspend).
type SuspendPolicy = nand.SuspendPolicy

// Suspend policies: off never preempts, erase suspends in-flight
// erases only (the common hardware capability), full suspends programs
// too.
const (
	SuspendOff   = nand.SuspendOff
	SuspendErase = nand.SuspendErase
	SuspendFull  = nand.SuspendFull
)

// SuspendByName resolves a suspend policy from its name ("off",
// "erase", "full"; empty means off) — the spelling RunSpec.Suspend and
// flashsim -suspend accept.
func SuspendByName(name string) (SuspendPolicy, error) { return nand.SuspendByName(name) }

// SuspendPolicyNames lists the suspend policies in presentation order
// (the a8 sweep's policy axis).
var SuspendPolicyNames = nand.SuspendPolicyNames

// The PPB strategy (internal/core).
type (
	// PPB is the progressive performance boosting FTL — the paper's
	// contribution.
	PPB = core.PPB
	// PPBOptions tunes the PPB strategy.
	PPBOptions = core.Options
	// PPBStats are PPB-specific activity counters.
	PPBStats = core.Stats
)

// NewPPB builds a PPB FTL over the device.
func NewPPB(dev *Device, opt PPBOptions) (*PPB, error) { return core.New(dev, opt) }

// Hot/cold identification (internal/hotness).
type (
	// Level is one of the paper's four data hotness levels.
	Level = hotness.Level
	// Area is the first-stage classification result (hot or cold).
	Area = hotness.Area
	// Identifier is the pluggable first-stage hot/cold mechanism.
	Identifier = hotness.Identifier
	// SizeCheck is the paper's case-study identifier.
	SizeCheck = hotness.SizeCheck
)

// The four hotness levels and two areas.
const (
	IcyCold = hotness.IcyCold
	Cold    = hotness.Cold
	Hot     = hotness.Hot
	IronHot = hotness.IronHot

	AreaHot  = hotness.AreaHot
	AreaCold = hotness.AreaCold
)

// Traces and workloads (internal/trace, internal/workload).
type (
	// Request is one block-level I/O.
	Request = trace.Request
	// Op is a request direction.
	Op = trace.Op
	// Stream is the pull-based request source every replay consumes:
	// Next returns the next request, or ok=false at end of stream. Trace
	// readers and workload generators implement it, so traces replay
	// without in-memory materialization.
	Stream = trace.Stream
	// Generator streams a deterministic synthetic workload (a Stream
	// plus sizing/labeling metadata).
	Generator = workload.Generator
	// MediaServerConfig parameterizes the media-server stand-in trace.
	MediaServerConfig = workload.MediaConfig
	// WebSQLConfig parameterizes the web/SQL stand-in trace.
	WebSQLConfig = workload.WebSQLConfig
	// Compositor merges N tenant streams into one multi-tenant Stream,
	// ordered by arrival time with a deterministic tie-break; each child
	// carries its own arrival process (timed, rate-scaled, offset, or
	// closed-loop weighted shares) and address region.
	Compositor = trace.Compositor
	// CompositorChild configures one tenant stream of a Compositor.
	CompositorChild = trace.CompositorChild
)

// MaxTenants is the per-run tenant accounting capacity: tenant IDs at or
// beyond it fold into the last accounting slot.
const MaxTenants = trace.MaxTenants

// NewCompositor builds a multi-tenant stream compositor over the given
// children (merged in slice order on arrival-time ties).
func NewCompositor(children ...CompositorChild) *Compositor {
	return trace.NewCompositor(children...)
}

// Request directions.
const (
	OpRead  = trace.OpRead
	OpWrite = trace.OpWrite
)

// NewMediaServer builds the media-server stand-in generator.
func NewMediaServer(cfg MediaServerConfig) Generator { return workload.NewMediaServer(cfg) }

// NewWebSQL builds the web/SQL stand-in generator.
func NewWebSQL(cfg WebSQLConfig) Generator { return workload.NewWebSQL(cfg) }

// Experiment harness (internal/harness).
type (
	// RunSpec describes one simulation run.
	RunSpec = harness.RunSpec
	// RunResult carries the measurements of one run.
	RunResult = harness.Result
	// TenantResult is one tenant's share of a multi-tenant run's
	// measurements (RunResult.Tenants on runs with RunSpec.Tenants >= 2).
	TenantResult = harness.TenantResult
	// Scale controls experiment size (QuickScale/BenchScale/PaperScale).
	Scale = harness.Scale
	// FigureResult is a regenerated paper artifact.
	FigureResult = harness.FigureResult
	// FTLKind selects the strategy a run uses.
	FTLKind = harness.FTLKind
	// Table renders aligned experiment tables.
	Table = metrics.Table
	// Histogram is a fixed-bucket latency histogram with nearest-rank
	// quantiles (P50/P95/P99 in RunResult come from these).
	Histogram = metrics.Histogram
	// ReplayMetrics accumulates per-request completion latency during a
	// measured replay (see ReplayQueued).
	ReplayMetrics = harness.ReplayMetrics
	// ReplayOptions selects the host queueing model of a measured replay:
	// queue depth (outstanding request cap) and closed- vs open-loop.
	ReplayOptions = harness.ReplayOptions
)

// Strategy kinds for RunSpec.
const (
	KindConventional = harness.KindConventional
	KindPPB          = harness.KindPPB
	KindGreedySpeed  = harness.KindGreedySpeed
	KindHotColdSplit = harness.KindHotColdSplit
)

// Experiment scales.
var (
	// QuickScale runs on a 512 MB-class device (CI speed).
	QuickScale = harness.QuickScale
	// BenchScale runs on a 2 GB-class device (default for benchmarks).
	BenchScale = harness.BenchScale
	// PaperScale replays against the full 64 GB Table 1 device.
	PaperScale = harness.PaperScale
)

// Run executes one simulation run.
func Run(spec RunSpec) (RunResult, error) { return harness.Run(spec) }

// RunAll executes the specs on a worker pool of the given parallelism
// (0 = GOMAXPROCS) and returns results in spec order. Each run owns its
// device, so results are identical to sequential Run calls.
func RunAll(specs []RunSpec, parallelism int) ([]RunResult, error) {
	return harness.RunAll(specs, parallelism)
}

// NewPageOpsFTL builds the standard page-op microbenchmark subject
// shared by the repo benchmarks and ppbench -json.
func NewPageOpsFTL(kind FTLKind) (FTL, error) { return harness.NewPageOpsFTL(kind) }

// NewReliabilityPageOpsFTL builds the page-op microbenchmark subject
// with the reliability model enabled (the retried-read hot path), shared
// by BenchmarkReliabilityPageOps and ppbench -json.
func NewReliabilityPageOpsFTL() (FTL, error) { return harness.NewReliabilityPageOpsFTL() }

// NewIntraChipPageOpsFTL builds the page-op microbenchmark subject with
// intra-chip parallelism enabled (multi-plane booking and erase
// suspension — the a8 hot paths), shared by BenchmarkIntraChipPageOps
// and ppbench -json.
func NewIntraChipPageOpsFTL() (FTL, error) { return harness.NewIntraChipPageOpsFTL() }

// NewTenantPageOpsFTL builds the multi-tenant microbenchmark subject
// (four chips, tenant-partition dispatch, four tenants — the a10 hot
// paths), shared by BenchmarkCompositorEventLoop and ppbench -json.
func NewTenantPageOpsFTL() (FTL, error) { return harness.NewTenantPageOpsFTL() }

// FTLKindNames lists the FTL strategy kinds in presentation order — the
// spellings RunSpec.Kind and flashsim -ftl accept.
var FTLKindNames = harness.FTLKindNames

// RunPageOps executes n iterations of the standard page-op loop.
func RunPageOps(f FTL, n int) error { return harness.RunPageOps(f, n) }

// ReplayQueued replays the stream under a host queueing model, as a
// discrete-event loop over one time-ordered event heap: a closed loop
// keeping ReplayOptions.QueueDepth requests outstanding, or — with
// ReplayOptions.OpenLoop — an open loop issuing requests at their trace
// arrival times and recording queueing delay alongside completion
// latency. A nil m skips measurement and the host model entirely (the
// options are ignored and requests replay back to back); pass
// NewReplayMetrics() when the queueing model should shape the device
// clocks. The zero ReplayOptions is the classic closed loop at queue
// depth 1.
func ReplayQueued(f FTL, src Stream, m *ReplayMetrics, opts ReplayOptions) error {
	return harness.ReplayQueued(f, src, m, opts)
}

// RunEventLoop replays n synthetic requests through the measured
// discrete-event replay loop — the shared body of BenchmarkEventLoop and
// ppbench -json's EventLoop microbenchmark.
func RunEventLoop(f FTL, m *ReplayMetrics, n int) error { return harness.RunEventLoop(f, m, n) }

// RunCompositorEventLoop replays n synthetic requests from a four-tenant
// stream compositor through the measured replay with per-tenant
// attribution and dispatch active — the shared body of
// BenchmarkCompositorEventLoop and ppbench -json's CompositorEventLoop
// microbenchmark.
func RunCompositorEventLoop(f FTL, m *ReplayMetrics, n int) error {
	return harness.RunCompositorEventLoop(f, m, n)
}

// NewReplayMetrics builds request-latency histograms for ReplayQueued.
func NewReplayMetrics() *ReplayMetrics { return harness.NewReplayMetrics() }

// Experiment runs one of the paper's experiments by ID ("12".."18" for
// figures, "3" for the motivation study, "a1".."a8" for ablations — the
// chip-parallel, queue-depth, dispatch-policy, causality/erase-deferral
// and intra-chip parallelism sweeps — "a9" for the reliability-engine
// sweep, and "a10" for the multi-tenant fairness sweep).
func Experiment(id string, s Scale) (*FigureResult, error) {
	fn, ok := harness.Experiments[id]
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return fn(s)
}

// ExperimentIDs lists the available experiment IDs in presentation order.
func ExperimentIDs() []string {
	ids := make([]string, len(harness.ExperimentOrder))
	copy(ids, harness.ExperimentOrder)
	return ids
}

// TableOne renders the paper's Table 1.
func TableOne() *FigureResult { return harness.TableOne() }

type unknownExperimentError string

func errUnknownExperiment(id string) error { return unknownExperimentError(id) }

func (e unknownExperimentError) Error() string {
	return "ppbflash: unknown experiment " + string(e) + " (want one of 3, 12-18, a1-a10)"
}
