package nand

import (
	"testing"
	"time"
)

// TestAfterFloorsNextOp: After(t) holds exactly the next scheduled
// operation until t, on top of the usual issue-clock and chip-queue
// gating, and is consumed by that operation.
func TestAfterFloorsNextOp(t *testing.T) {
	cfg := twoChipConfig()
	d := MustNewDevice(cfg)
	c0, err := d.Program(cfg.PPNForBlockPage(0, 0), OOB{LPN: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Chip 1 is idle; without a floor its op would start at now = 0.
	d.After(c0)
	chip1Block := BlockID(cfg.BlocksPerChip)
	c1, err := d.Program(cfg.PPNForBlockPage(chip1Block, 0), OOB{LPN: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.LastStart(); got != c0 {
		t.Errorf("floored op started at %v, want floor %v", got, c0)
	}
	if got := d.LastFinish(); got != c0+c1 {
		t.Errorf("floored op finished at %v, want %v", got, c0+c1)
	}
	// The floor was consumed: the next chip-1 op starts at the chip
	// queue, not at a stale floor.
	c1b, err := d.Program(cfg.PPNForBlockPage(chip1Block, 1), OOB{LPN: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.LastStart(); got != c0+c1 {
		t.Errorf("post-floor op started at %v, want queued %v", got, c0+c1)
	}
	_ = c1b

	// A floor below the chip-free clock is inert: chip 0 is busy until
	// c0, so flooring at c0/2 changes nothing — the single-chip
	// bit-identity guarantee in miniature.
	d.After(c0 / 2)
	if _, err := d.Program(cfg.PPNForBlockPage(0, 1), OOB{LPN: 4}); err != nil {
		t.Fatal(err)
	}
	if got := d.LastStart(); got != c0 {
		t.Errorf("inert floor moved start to %v, want %v", got, c0)
	}
}

// deferTestDevice builds a two-chip device with erase deferral enabled
// and chip 0 busy: block 1 (chip 0) holds programmed pages so reads can
// keep the chip occupied, and block 0 is ready to erase.
func deferTestDevice(t *testing.T, window time.Duration) (*Device, Config) {
	t.Helper()
	cfg := twoChipConfig()
	d := MustNewDevice(cfg)
	d.SetEraseDeferral(window)
	for page := 0; page < 2; page++ {
		if _, err := d.Program(cfg.PPNForBlockPage(1, page), OOB{LPN: uint64(page)}); err != nil {
			t.Fatal(err)
		}
	}
	return d, cfg
}

// TestEraseDeferralIdleCommit: a deferred erase does not occupy its busy
// chip; it commits into the idle gap before the chip's next operation.
func TestEraseDeferralIdleCommit(t *testing.T) {
	d, cfg := deferTestDevice(t, time.Second)
	busy := d.ChipFree(0)
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	if got := d.ChipFree(0); got != busy {
		t.Fatalf("deferred erase occupied the chip: free %v, want %v", got, busy)
	}
	if got := d.DeferredErases(); got != 1 {
		t.Fatalf("deferred erases = %d, want 1", got)
	}
	if got := d.Stats().Erases.Value(); got != 1 {
		t.Fatalf("erase not counted at issue: %d", got)
	}
	// The host goes quiet past the queued work, then issues a read on
	// chip 0: the chip idled at `busy`, so the erase ran [busy,
	// busy+erase] and the read starts at its own (later) issue time.
	issue := busy + 2*cfg.EraseLatency
	d.AdvanceTo(issue)
	if _, _, err := d.Read(cfg.PPNForBlockPage(1, 0)); err != nil {
		t.Fatal(err)
	}
	if got := d.LastStart(); got != issue {
		t.Errorf("read started at %v, want its issue time %v (erase absorbed by the gap)", got, issue)
	}
	if got, want := d.ChipFree(0), issue+d.readCost[0]; got != want {
		t.Errorf("chip free = %v, want %v", got, want)
	}
	if got := d.DeferredErases(); got != 0 {
		t.Errorf("deferred erases = %d after idle commit, want 0", got)
	}
}

// TestEraseDeferralLetsLaterOpsGoFirst: an operation issued while the
// chip is still busy is scheduled ahead of the parked erase — the
// head-of-line blocking the deferral exists to remove.
func TestEraseDeferralLetsLaterOpsGoFirst(t *testing.T) {
	d, cfg := deferTestDevice(t, time.Second)
	busy := d.ChipFree(0)
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	// Still busy (now < chipFree), deadline far away: the read queues at
	// the drain point, NOT behind a 4 ms erase.
	if _, _, err := d.Read(cfg.PPNForBlockPage(1, 0)); err != nil {
		t.Fatal(err)
	}
	if got := d.LastStart(); got != busy {
		t.Errorf("read started at %v, want drain %v (before the deferred erase)", got, busy)
	}
	if got := d.DeferredErases(); got != 1 {
		t.Errorf("deferred erases = %d, want 1 still pending", got)
	}
}

// TestEraseDeferralDeadlineCommit: an erase whose deferral window would
// pass before the next operation starts is committed ahead of that
// operation — the chip stays busy, no idle gap exists, but the deadline
// bounds how long later ops may keep jumping the queue.
func TestEraseDeferralDeadlineCommit(t *testing.T) {
	d, cfg := deferTestDevice(t, time.Millisecond/2) // window << queued work
	busy := d.ChipFree(0)
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	// The read is issued at now = 0 (no idle gap: issue <= chip free),
	// but the erase's deadline (arm 0 + window) lands before the read
	// could start, so the erase is booked first.
	if _, _, err := d.Read(cfg.PPNForBlockPage(1, 0)); err != nil {
		t.Fatal(err)
	}
	if got, want := d.LastStart(), busy+cfg.EraseLatency; got != want {
		t.Errorf("read started at %v, want %v (behind the deadline-committed erase)", got, want)
	}
	if got := d.DeferredErases(); got != 0 {
		t.Errorf("deferred erases = %d after deadline, want 0", got)
	}
}

// TestEraseDeferralBlockReuseCommit: programming the reallocated block
// forces its pending erase to commit first — the device never books a
// program onto a block whose erase has not happened yet.
func TestEraseDeferralBlockReuseCommit(t *testing.T) {
	d, cfg := deferTestDevice(t, time.Hour)
	busy := d.ChipFree(0)
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Program(cfg.PPNForBlockPage(0, 0), OOB{LPN: 9}); err != nil {
		t.Fatal(err)
	}
	if got, want := d.LastStart(), busy+cfg.EraseLatency; got != want {
		t.Errorf("program into reused block started at %v, want after erase %v", got, want)
	}
	if got := d.DeferredErases(); got != 0 {
		t.Errorf("deferred erases = %d after block reuse, want 0", got)
	}
}

// TestFlushDeferredErases: pending erases are booked at their chips'
// free time, Makespan folds still-parked erases in even before the
// flush (callers that skip FlushDeferredErases must not see understated
// makespans), and ResetClocks drops whatever belongs to a discarded
// timeline.
func TestFlushDeferredErases(t *testing.T) {
	d, cfg := deferTestDevice(t, time.Hour)
	busy := d.ChipFree(0)
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Makespan(), busy+cfg.EraseLatency; got != want {
		t.Fatalf("makespan %v with parked erase, want folded %v", got, want)
	}
	if got := d.ChipFree(0); got != busy {
		t.Fatalf("chip clock %v moved by Makespan probe, want %v", got, busy)
	}
	d.FlushDeferredErases()
	if got, want := d.Makespan(), busy+cfg.EraseLatency; got != want {
		t.Errorf("flushed makespan = %v, want %v", got, want)
	}
	if got := d.DeferredErases(); got != 0 {
		t.Errorf("deferred erases = %d after flush, want 0", got)
	}

	// ResetClocks clears pending erases along with the clocks.
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	if d.DeferredErases() != 1 {
		t.Fatal("setup: expected one pending erase")
	}
	d.ResetClocks()
	if got := d.DeferredErases(); got != 0 {
		t.Errorf("deferred erases = %d after ResetClocks, want 0", got)
	}
	if got := d.Makespan(); got != 0 {
		t.Errorf("makespan = %v after ResetClocks, want 0", got)
	}
}

// TestEraseForceDoubleDeferral is the audit regression for EraseForce
// against the deferred-erase queue: force-erasing the same block twice
// while its chip is busy parks two queue entries for that block, and
// each must be booked exactly once. commitEligible's must-commit scan
// keeps the LAST matching index, so a program into the reallocated
// block drains both entries (never just the first, which would let the
// program book ahead of the second erase), the chip clock carries
// exactly two erase costs, stats count exactly two erases, and nothing
// stale survives for FlushDeferredErases to double-book.
func TestEraseForceDoubleDeferral(t *testing.T) {
	d, cfg := deferTestDevice(t, time.Hour)
	busy := d.ChipFree(0)
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	if got := d.DeferredErases(); got != 2 {
		t.Fatalf("deferred erases = %d after double force, want 2", got)
	}
	if got := d.Stats().Erases.Value(); got != 2 {
		t.Fatalf("erase stats = %d at issue, want 2", got)
	}
	if got := d.ChipFree(0); got != busy {
		t.Fatalf("deferred erases occupied the chip: free %v, want %v", got, busy)
	}
	// Programming the reallocated block must commit BOTH parked erases
	// first: the program starts after two erase costs, not one.
	if _, err := d.Program(cfg.PPNForBlockPage(0, 0), OOB{LPN: 9}); err != nil {
		t.Fatal(err)
	}
	if got, want := d.LastStart(), busy+2*cfg.EraseLatency; got != want {
		t.Errorf("program into twice-erased block started at %v, want %v", got, want)
	}
	if got := d.DeferredErases(); got != 0 {
		t.Errorf("deferred erases = %d after block reuse, want 0", got)
	}
	// The queue is truly empty: flushing now must not move the clocks
	// (a stale entry would re-book a third erase cost).
	free := d.ChipFree(0)
	d.FlushDeferredErases()
	if got := d.ChipFree(0); got != free {
		t.Errorf("flush moved chip free from %v to %v with an empty queue", free, got)
	}
	if got := d.Stats().Erases.Value(); got != 2 {
		t.Errorf("erase stats = %d after commit+flush, want still 2", got)
	}
}

// TestEraseDeferralDisabledUnchanged: with no deferral window the erase
// occupies the chip immediately, exactly as before the queue existed.
func TestEraseDeferralDisabledUnchanged(t *testing.T) {
	cfg := twoChipConfig()
	d := MustNewDevice(cfg)
	if got := d.EraseDeferral(); got != 0 {
		t.Fatalf("deferral window = %v by default, want 0", got)
	}
	if _, err := d.EraseForce(0); err != nil {
		t.Fatal(err)
	}
	if got := d.ChipFree(0); got != cfg.EraseLatency {
		t.Errorf("chip free = %v, want immediate erase %v", got, cfg.EraseLatency)
	}
	if got := d.DeferredErases(); got != 0 {
		t.Errorf("deferred erases = %d with deferral off", got)
	}
}
