package ftl

import (
	"time"

	"ppbflash/internal/nand"
)

// ReprogramFunc relocates one valid page during GC and returns the device
// cost of the program plus the new physical page.
type ReprogramFunc func(oob nand.OOB) (time.Duration, nand.PPN, error)

// GCLoop is the garbage collector shared by every FTL in this module:
// greedy victim selection (most invalid pages, wear-aware tie-break),
// valid-page relocation through the strategy's own reprogram routine,
// erase, release. It runs until the free pool recovers to the high-water
// mark or nothing reclaimable remains.
//
// Victims come from the manager's incrementally maintained invalid-count
// index, so each pick costs O(candidates at the top count) instead of a
// scan over every block (victim_test.go cross-checks it against the
// full-scan reference).
func (b *Base) GCLoop(exclude func(nand.BlockID) bool, reprogram ReprogramFunc) error {
	return b.GCLoopOrdered(exclude, reprogram, nil)
}

// pickVictim selects the next GC victim: full blocks only, then (when
// fullOnly is cleared) any owned block as the desperation fallback.
// Under Options.Wear == WearAware the greedy rule is relaxed through
// the victim index.
func (b *Base) pickVictim(fullOnly bool, exclude func(nand.BlockID) bool) (nand.BlockID, bool) {
	if b.opts.Wear == WearAware {
		return b.vbm.PickVictimWearAware(fullOnly, exclude, b.dev.EraseCount, b.opts.WearWindow)
	}
	return b.vbm.PickVictim(fullOnly, exclude, b.dev.EraseCount)
}

// GCLoopOrdered is GCLoop with a relocation-order hook: within each
// collected block, pages for which fastFirst returns true are relocated
// before the rest. PPB uses this to let fast-deserving data (iron-hot,
// cold) claim the available fast virtual-block space of a GC burst ahead
// of slow-deserving data — the paper does not fix a relocation order, and
// this one makes the progressive migration converge. A nil fastFirst
// keeps physical page order.
func (b *Base) GCLoopOrdered(exclude func(nand.BlockID) bool,
	reprogram ReprogramFunc, fastFirst func(nand.OOB) bool) error {
	vbm := b.vbm
	b.stats.GCRuns.Inc()
	for vbm.FreeBlocks() < b.opts.GCHighWater {
		victim, ok := b.pickVictim(true, exclude)
		if !ok {
			// Desperation: consider partially filled, non-active blocks.
			victim, ok = b.pickVictim(false, exclude)
			if !ok {
				return nil // nothing reclaimable; let the write fail if truly full
			}
		}
		before := vbm.FreeBlocks()
		retiredBefore := b.dev.RetiredBlocks()
		if err := b.collectBlock(victim, reprogram, fastFirst); err != nil {
			return err
		}
		if vbm.FreeBlocks() <= before && b.dev.RetiredBlocks() == retiredBefore {
			// Relocation consumed the reclaimed space: the high-water
			// target is not reachable right now. Stop rather than churn
			// nearly-valid blocks (GC must always make forward progress).
			// A collection that retired its victim made a different kind
			// of progress — retirement is permanent, so looping on it is
			// bounded by the block count and must continue, or a wave of
			// bad blocks would wedge reclaim below the high-water mark.
			return nil
		}
	}
	// Free space is healthy again: do the proactive reliability work —
	// scrub blocks flagged for retirement, then rebalance wear. Both are
	// bounded and guarded so they never push the pool back into GC.
	if err := b.scrubRetireCandidates(exclude, reprogram, fastFirst); err != nil {
		return err
	}
	return b.maybeWearSwap(exclude, reprogram, fastFirst)
}

// scrubRetireCandidates drains the device's retire-candidate queue
// while free space allows: each candidate's surviving valid pages are
// relocated and the block is retired instead of freed. A candidate
// skipped here (active block, or the pool ran low) keeps its pending
// recommendation and is retired at its next normal GC erase instead, so
// retirement never depends on the scrub running.
func (b *Base) scrubRetireCandidates(exclude func(nand.BlockID) bool, reprogram ReprogramFunc, fastFirst func(nand.OOB) bool) error {
	if !b.dev.ReliabilityEnabled() {
		return nil
	}
	for b.vbm.FreeBlocks() > b.opts.GCLowWater {
		cand, ok := b.dev.NextRetireCandidate()
		if !ok {
			return nil
		}
		if exclude != nil && exclude(cand) {
			continue
		}
		if _, owned := b.vbm.PoolOf(cand); !owned {
			continue
		}
		if err := b.collectBlock(cand, reprogram, fastFirst); err != nil {
			return err
		}
	}
	return nil
}

// maybeWearSwap runs one static wear-leveling swap per GC invocation
// under Options.Wear == WearThresholdSwap: when the spread between the
// device's highest erase count and the least-worn full block reaches
// Options.WearThreshold, that cold block is collected even though it
// may be fully valid, so its under-worn cells rejoin circulation. The
// max erase count is O(1) (the device maintains it incrementally); only
// the min scan pays a ForEachFull walk, and only while the policy is
// active and free space is healthy.
func (b *Base) maybeWearSwap(exclude func(nand.BlockID) bool, reprogram ReprogramFunc, fastFirst func(nand.OOB) bool) error {
	if b.opts.Wear != WearThresholdSwap {
		return nil
	}
	if b.vbm.FreeBlocks() <= b.opts.GCLowWater {
		return nil
	}
	max := b.dev.MaxEraseCount()
	if max < b.opts.WearThreshold {
		return nil
	}
	var cand nand.BlockID
	var candWear uint32
	found := false
	b.vbm.ForEachFull(func(blk nand.BlockID) bool {
		if exclude != nil && exclude(blk) {
			return true
		}
		if w := b.dev.EraseCount(blk); !found || w < candWear {
			cand, candWear, found = blk, w, true
		}
		return true
	})
	if !found || max-candWear < b.opts.WearThreshold {
		return nil
	}
	return b.collectBlock(cand, reprogram, fastFirst)
}

// collectBlock relocates the victim's valid pages (optionally in two
// passes ordered by fastFirst), erases it and returns it to the free
// pool, charging all device time to GC.
//
// Under the causal dependency model (Options.Dependency) each
// relocation is a read -> program chain: the copy's program is armed
// (nand.Device.After) behind its source read's completion, and the
// victim erase behind the last relocation's program — so a cross-chip
// copy can no longer program data before that data was read, and the
// block is not erased before its contents are safe elsewhere. On a
// single chip every op serializes on one clock and the floors are
// inert, keeping Chips=1 timelines bit-identical.
func (b *Base) collectBlock(victim nand.BlockID,
	reprogram ReprogramFunc, fastFirst func(nand.OOB) bool) error {
	vbm := b.vbm
	// A partially-used victim may still be queued as "pending": its next
	// part could otherwise be opened as a relocation target mid-collect.
	vbm.UnqueuePending(victim)
	poolIdx := 0
	if pool, ok := vbm.PoolOf(victim); ok {
		poolIdx = pool
		if poolIdx >= len(b.stats.GCPoolErases) {
			poolIdx = len(b.stats.GCPoolErases) - 1
		}
	}
	var lastReloc time.Duration // latest relocation finish (causal erase floor)
	relocate := func(page int) error {
		ppn := b.cfg.PPNForBlockPage(victim, page)
		oob, readCost, err := b.dev.Read(ppn)
		if err != nil {
			return err
		}
		if b.causal {
			b.dev.After(b.dev.LastFinish()) // program waits for its source read
		}
		progCost, newPPN, err := reprogram(oob)
		if err != nil {
			return err
		}
		if b.causal {
			if fin := b.dev.LastFinish(); fin > lastReloc {
				lastReloc = fin
			}
		}
		b.table.Set(oob.LPN, newPPN)
		if err := b.Invalidate(ppn); err != nil {
			return err
		}
		b.stats.GCCopies.Inc()
		b.stats.GCPoolCopies[poolIdx].Inc()
		b.stats.GCLatency.Observe(readCost + progCost)
		return nil
	}
	// The deferred-page scratch lives on the Base and is reused across
	// collections: GC runs millions of times per replay and must not
	// allocate per collected block. A nested collection (re-entered
	// through reprogram) detaches instead — sharing the backing array
	// while the outer pass still appends to or ranges it would silently
	// corrupt the outer victim's page list.
	nested := b.gcCollecting
	b.gcCollecting = true
	defer func() { b.gcCollecting = nested }()
	deferred := b.gcDeferred[:0]
	if nested {
		deferred = nil
	}
	for page := 0; page < b.cfg.PagesPerBlock; page++ {
		ppn := b.cfg.PPNForBlockPage(victim, page)
		if b.dev.State(ppn) != nand.PageValid {
			continue
		}
		if fastFirst != nil && !fastFirst(b.dev.PeekOOB(ppn)) {
			deferred = append(deferred, page)
			continue
		}
		if err := relocate(page); err != nil {
			return err
		}
	}
	if !nested {
		// Hand the (possibly grown) array back before the second pass;
		// any collection nested under it detaches, so the range below
		// cannot be clobbered.
		b.gcDeferred = deferred[:0]
	}
	for _, page := range deferred {
		if err := relocate(page); err != nil {
			return err
		}
	}
	if b.causal && lastReloc > 0 {
		b.dev.After(lastReloc) // erase waits for the last relocation
	}
	eraseCost, err := b.dev.Erase(victim)
	if err != nil {
		return err
	}
	if b.dev.RetireRecommended(victim) {
		// The erase crossed the block's P/E limit (or earlier
		// uncorrectable reads flagged it): retire instead of freeing.
		// Contents are already safe — every valid page was relocated
		// above — so capacity shrinks by exactly one clean block.
		b.dev.MarkRetired(victim)
		err = vbm.Retire(victim)
	} else if vbm.IsFull(victim) {
		err = vbm.Release(victim)
	} else {
		err = vbm.ReleaseForce(victim)
	}
	if err != nil {
		return err
	}
	b.stats.GCErases.Inc()
	b.stats.GCPoolErases[poolIdx].Inc()
	b.stats.GCLatency.Observe(eraseCost)
	return nil
}
