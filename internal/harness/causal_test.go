package harness

import (
	"testing"
)

// TestCausalSweepShape asserts the headline claims of experiment a7 on
// websql at queue depth 8 (>= 4, where reads actually queue behind GC
// erases):
//
//   - scheduling knobs never change what GC does, only when it is
//     booked: under the timing-independent striped placement the total
//     erase count is identical across every dependency x deferral mode;
//   - the causal model removes the legacy model's illegal overlap, so
//     its makespan is strictly longer (the legacy timeline was
//     optimistic by exactly the overlap it invented);
//   - erase deferral reduces the read p99 tail under the causal model
//     at striped placement (aggregate over conventional and PPB) — the
//     multi-millisecond erases leave the read path — while strictly
//     improving makespan at every dispatch policy.
func TestCausalSweepShape(t *testing.T) {
	if raceEnabled {
		t.Skip("heavy single-threaded sweep; skipped under -race (see race_on_test.go)")
	}
	fig, err := CausalSweep(testScale)
	if err != nil {
		t.Fatal(err)
	}
	n := len(DispatchPolicies)
	series := func(key string) []float64 {
		t.Helper()
		s, ok := fig.Series[key]
		if !ok || len(s) != n {
			t.Fatalf("series %q has %d points, want %d", key, len(s), n)
		}
		return s
	}
	const striped = 0 // DispatchPolicies[0]: the timing-independent policy

	// Erase parity at striped: legacy/causal x defer-off/defer-on all
	// run the identical op stream, so per-FTL erase totals must match.
	for _, kind := range []string{"conv", "ppb"} {
		want := series("legacy/defer-off/erases/" + kind)[striped]
		for _, dep := range CausalDependencyModels {
			for _, deferOn := range CausalDeferModes {
				key := dep + "/" + causalDeferName(deferOn) + "/erases/" + kind
				if got := series(key)[striped]; got != want {
					t.Errorf("%s striped erases = %.0f, want %.0f (scheduling must not change GC)", key, got, want)
				}
			}
		}
	}

	// The causal model books strictly more serialized time than legacy
	// at every policy (it cannot start a copy before its data exists).
	for _, kind := range []string{"conv", "ppb"} {
		legacy := series("legacy/defer-off/makespan/" + kind)
		causal := series("causal/defer-off/makespan/" + kind)
		for i, policy := range DispatchPolicies {
			if causal[i] <= legacy[i] {
				t.Errorf("%s/%s: causal makespan %.3fs not above legacy %.3fs", kind, policy, causal[i], legacy[i])
			}
		}
	}

	// Erase deferral under the causal model: read p99 falls at striped
	// (aggregate over both FTLs, strictly), and makespan falls at every
	// policy for both FTLs.
	var offSum, onSum float64
	for _, kind := range []string{"conv", "ppb"} {
		offSum += series("causal/defer-off/readp99/" + kind)[striped]
		onSum += series("causal/defer-on/readp99/" + kind)[striped]
		off := series("causal/defer-off/makespan/" + kind)
		on := series("causal/defer-on/makespan/" + kind)
		for i, policy := range DispatchPolicies {
			if on[i] >= off[i] {
				t.Errorf("%s/%s: deferred-erase makespan %.3fs not below %.3fs", kind, policy, on[i], off[i])
			}
		}
	}
	if onSum >= offSum {
		t.Errorf("striped causal read p99 aggregate with deferral %.4fs not below %.4fs without", onSum, offSum)
	}

	// Every combo produces a full series — no silent holes in the sweep.
	for _, dep := range CausalDependencyModels {
		for _, deferOn := range CausalDeferModes {
			for _, metric := range []string{"makespan", "readp99", "erases"} {
				for _, kind := range []string{"conv", "ppb"} {
					series(dep + "/" + causalDeferName(deferOn) + "/" + metric + "/" + kind)
				}
			}
			series(dep + "/" + causalDeferName(deferOn) + "/writep99/ppb")
		}
	}
}

// TestSingleChipSchedulingInvariance: on one chip every operation
// serializes on a single clock, so the causal dependency floors are
// dominated by the chip-free time and the legacy and causal models must
// produce bit-identical results — the correctness proof that keeps the
// a1-a3 goldens byte-stable while a4-a7 move.
func TestSingleChipSchedulingInvariance(t *testing.T) {
	if raceEnabled {
		t.Skip("sequential single-threaded runs; skipped under -race (see race_on_test.go)")
	}
	for _, kind := range []FTLKind{KindConventional, KindPPB} {
		base := RunSpec{
			Name: "inv/" + string(kind), Device: testScale.DeviceConfig(16<<10, 2),
			Kind: kind, Workload: testScale.WebSQLWorkload(), Prefill: true, QueueDepth: 4,
		}
		legacy := base
		legacy.Dependency = "legacy"
		causal := base
		causal.Dependency = "causal"
		lr, err := Run(legacy)
		if err != nil {
			t.Fatal(err)
		}
		cr, err := Run(causal)
		if err != nil {
			t.Fatal(err)
		}
		if lr.Canonical() != cr.Canonical() {
			t.Errorf("%s: single-chip results differ between dependency models:\nlegacy %+v\ncausal %+v", kind, lr, cr)
		}
	}
}

// TestRunSpecDependencyNames: naming the default model must be
// bit-identical to leaving the field empty on a multi-chip device, and
// an unknown name must fail the run instead of silently defaulting.
func TestRunSpecDependencyNames(t *testing.T) {
	base := RunSpec{
		Name: "dep/base", Device: testScale.DeviceConfig(16<<10, 2).WithChips(4),
		Kind: KindPPB, Workload: testScale.WebSQLWorkload(), Prefill: true, QueueDepth: 4,
	}
	def, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	named := base
	named.Dependency = "causal"
	res, err := Run(named)
	if err != nil {
		t.Fatal(err)
	}
	res.Name = def.Name
	if res.Canonical() != def.Canonical() {
		t.Errorf("causal-by-name result differs from default:\n got %+v\nwant %+v", res, def)
	}

	bad := base
	bad.Dependency = "clairvoyant"
	if _, err := Run(bad); err == nil {
		t.Error("unknown dependency name accepted")
	}
}
