package harness

import (
	"errors"
	"fmt"

	"ppbflash/internal/ftl"
	"ppbflash/internal/metrics"
	"ppbflash/internal/nand"
)

// ReliabilityProfiles is the BER-profile axis of experiment a9 (the
// enabled presets of nand.ReliabilityProfileByName; "off" is covered by
// every other experiment).
var ReliabilityProfiles = []string{"low", "high"}

// ReliabilityWearPolicies is the wear-policy axis of experiment a9 —
// aliased from the ftl registry so a new policy joins the sweep
// automatically.
var ReliabilityWearPolicies = ftl.WearPolicyNames

// ReliabilityCyclingTurnovers scales the scale's write turnover for the
// P/E-cycling axis of experiment a9: the same device and trace shape at
// half and 1.5x the write volume, so per-block erase counts differ and
// the cycling term of the RBER model becomes visible in the retry rate.
var ReliabilityCyclingTurnovers = []float64{0.5, 1.5}

// reliabilityLifetimeDivisor shrinks the a9 lifetime-probe device below
// the sweep's replay device: the probe writes every block to its P/E
// limit, so its cost scales with TotalPages x PECycleLimit rather than
// with the trace length.
const reliabilityLifetimeDivisor = 4

// reliabilityLifetimePELimit replaces the profile's P/E limit inside the
// lifetime probe. The presets keep their limits above replay wear so
// the sweep measures retry behavior on an intact device; the probe's
// whole point is wear-out, and a low limit bounds its cost to
// TotalPages x limit programs per policy.
const reliabilityLifetimePELimit = 24

// lifetimeProbe measures the a9 lifetime proxy for one wear policy:
// host page writes sustained before the capacity floor. The whole
// logical space is written once (cold data that a wear-oblivious GC
// never touches), then a hot eighth of it is rewritten round-robin
// until the FTL reports ErrNoSpace — under the profile's P/E limit
// blocks retire as they wear out, so the write count measures how well
// the wear policy spreads erases before capacity collapses. The cap is
// a safety net (2x the device's total program endowment) that a
// functioning retirement path never reaches.
func lifetimeProbe(cfg nand.Config, wear string, profile string, seed int64) (uint64, error) {
	dev, err := nand.NewDevice(cfg)
	if err != nil {
		return 0, err
	}
	prof, err := nand.ReliabilityProfileByName(profile)
	if err != nil {
		return 0, err
	}
	prof.PECycleLimit = reliabilityLifetimePELimit
	f, err := buildFTL(RunSpec{
		Kind: KindConventional,
		Wear: wear,
		Seed: seed,
		FTLOptions: ftl.Options{
			OverProvision: 0.2,
			Reliability:   &prof,
		},
	}, dev)
	if err != nil {
		return 0, err
	}
	span := f.LogicalPages()
	for lpn := uint64(0); lpn < span; lpn++ {
		if err := f.Write(lpn, 1<<20); err != nil {
			if errors.Is(err, ftl.ErrNoSpace) {
				return 0, fmt.Errorf("harness: lifetime probe died during cold fill: %w", err)
			}
			return 0, err
		}
	}
	hot := max(span/8, 1)
	limit := cfg.TotalPages() * uint64(prof.PECycleLimit+1) * 2
	var writes uint64
	for writes < limit {
		if err := f.Write(writes%hot, 4096); err != nil {
			if errors.Is(err, ftl.ErrNoSpace) {
				return writes, nil
			}
			return 0, err
		}
		writes++
	}
	return writes, nil
}

// ReliabilitySweep (experiment a9) measures the reliability engine:
// BER profile (low, high) x wear policy (none, wear-aware,
// threshold-swap) x FTL (conventional, PPB) on the websql trace,
// reporting retry rate, mean retries per retried read, uncorrectable
// reads and retired blocks. Two extra runs sweep the write turnover
// (P/E-cycling axis: more cycles -> higher RBER -> higher retry rate),
// and three sequential probes measure the lifetime proxy — host writes
// sustained before the capacity floor under P/E-limit retirement — per
// wear policy. Greedy GC never touches write-once cold blocks, so only
// the threshold-swap static policy spreads wear into them and the
// lifetime proxy responds; wear-aware victim scoring only flattens wear
// among already-churning blocks.
func ReliabilitySweep(s Scale) (*FigureResult, error) {
	dev := s.DeviceConfig(16<<10, 2.0)
	tbl := metrics.NewTable("Experiment a9: reliability engine — BER profile x wear policy x FTL (websql, ratio 2x)",
		"point", "retry rate", "mean retries", "uncorrectable", "retired blocks", "lifetime writes")
	// rowOf renders one replay point; only lifetime probes fill the last
	// column.
	rowOf := func(point string, res Result) []any {
		return []any{point, fmt.Sprintf("%.4f%%", res.RetryRate*100), fmt.Sprintf("%.3f", res.MeanRetrySteps),
			res.UncorrectableReads, res.RetiredBlocks, "-"}
	}
	fig, err := runSweeps(s, newFigure("a9-reliability-sweep", tbl), sweep{
		prefix: "reliability-sweep",
		base:   RunSpec{Device: dev, Workload: s.WebSQLWorkload(), Prefill: true, Seed: s.Seed},
		axes: []axis{
			over("%s", ReliabilityProfiles, func(r *RunSpec, prof string) { r.Reliability = prof }),
			over("%s", ReliabilityWearPolicies, func(r *RunSpec, wear string) { r.Wear = wear }),
			kinds(KindConventional, KindPPB),
		},
		row: func(f *FigureResult, p point) []any {
			key, res := p.key(3), p.res[0]
			f.add(key+"/retryrate", res.RetryRate)
			f.add(key+"/meanretry", res.MeanRetrySteps)
			f.add(key+"/uncorrectable", float64(res.UncorrectableReads))
			f.add(key+"/retired", float64(res.RetiredBlocks))
			return rowOf(key, res)
		},
	}, sweep{
		// P/E-cycling axis: the high profile under the default policies at
		// scaled write volumes. More turnover means more erases per block,
		// so the cycling term of the RBER model must raise the retry rate.
		prefix: "reliability-sweep/cycling",
		base:   RunSpec{Device: dev, Kind: KindConventional, Prefill: true, Reliability: "high", Seed: s.Seed},
		axes: []axis{over("%gx", ReliabilityCyclingTurnovers, func(r *RunSpec, mult float64) {
			cs := s
			cs.WriteTurnover = s.WriteTurnover * mult
			r.Workload = cs.WebSQLWorkload()
		})},
		row: func(f *FigureResult, p point) []any {
			f.add("cycling/retryrate", p.res[0].RetryRate)
			return rowOf("cycling/"+p.labels[0]+"/high/conventional", p.res[0])
		},
	})
	if err != nil {
		return nil, err
	}
	// Lifetime proxy: sequential by design — each probe runs a device to
	// its capacity floor, and three small probes are cheaper than one
	// replay point above.
	for _, wear := range ReliabilityWearPolicies {
		writes, err := lifetimeProbe(dev.Scaled(reliabilityLifetimeDivisor), wear, "high", s.Seed)
		if err != nil {
			return nil, err
		}
		fig.add("lifetime/"+wear, float64(writes))
		tbl.AddRow("lifetime/high/"+wear, "-", "-", "-", "-", writes)
	}
	return fig, nil
}
