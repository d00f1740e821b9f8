package ftl

import (
	"time"

	"ppbflash/internal/nand"
)

// GCLoop is the garbage collector shared by every FTL in this module:
// greedy victim selection (most invalid pages, wear-aware tie-break)
// among the blocks that are not open (vblock.Manager.IsOpen), valid-page
// relocation through Placement.Relocate (in Placement.FastFirst order
// when set), erase, release. It runs until the free pool recovers to the
// high-water mark or nothing reclaimable remains. Base.Write calls it
// at the low-water mark.
//
// Victims come from the manager's incrementally maintained invalid-count
// index, so each pick costs O(candidates in the buckets walked) instead
// of a scan over every block (victim_test.go cross-checks it against the
// full-scan reference).
func (b *Base) GCLoop() error {
	vbm := b.vbm
	b.stats.GCRuns.Inc()
	for vbm.FreeBlocks() < b.opts.GCHighWater {
		victim, ok := b.pickVictim(true)
		if !ok {
			// Desperation: consider partially filled blocks that are not open.
			victim, ok = b.pickVictim(false)
			if !ok {
				return nil // nothing reclaimable; let the write fail if truly full
			}
		}
		before := vbm.FreeBlocks()
		retiredBefore := b.dev.RetiredBlocks()
		if err := b.collectBlock(victim); err != nil {
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
	if err := b.scrubRetireCandidates(); err != nil {
		return err
	}
	return b.maybeWearSwap()
}

// pickVictim selects the next GC victim: full blocks only, then (when
// fullOnly is cleared) any owned block as the desperation fallback.
// Under Options.Wear == WearAware the greedy rule is relaxed by
// Options.WearWindow invalid-count buckets.
func (b *Base) pickVictim(fullOnly bool) (nand.BlockID, bool) {
	window := 0
	if b.opts.Wear == WearAware {
		window = b.opts.WearWindow
	}
	return b.vbm.PickVictim(fullOnly, b.dev.EraseCount, window)
}

// scrubRetireCandidates drains the device's retire-candidate queue
// while free space allows: each candidate's surviving valid pages are
// relocated and the block is retired instead of freed. A candidate
// skipped here (open block, or the pool ran low) keeps its pending
// recommendation and is retired at its next normal GC erase instead, so
// retirement never depends on the scrub running.
func (b *Base) scrubRetireCandidates() error {
	if !b.dev.ReliabilityEnabled() {
		return nil
	}
	for b.vbm.FreeBlocks() > b.opts.GCLowWater {
		cand, ok := b.dev.NextRetireCandidate()
		if !ok {
			return nil
		}
		if _, owned := b.vbm.PoolOf(cand); !owned || b.vbm.IsOpen(cand) {
			continue
		}
		if err := b.collectBlock(cand); err != nil {
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
// the min scan walks the full blocks, and only while the policy is
// active and free space is healthy.
func (b *Base) maybeWearSwap() error {
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
	for blk := nand.BlockID(0); int(blk) < b.cfg.TotalBlocks(); blk++ {
		if !b.vbm.IsFull(blk) {
			continue
		}
		if w := b.dev.EraseCount(blk); !found || w < candWear {
			cand, candWear, found = blk, w, true
		}
	}
	if !found || max-candWear < b.opts.WearThreshold {
		return nil
	}
	return b.collectBlock(cand)
}

// collectBlock relocates the victim's valid pages (in two passes when
// Placement.FastFirst is set), erases it and returns it to the free
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
func (b *Base) collectBlock(victim nand.BlockID) error {
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
	nested := b.gcCollecting
	b.gcCollecting = true
	lastReloc, err := b.relocateValid(victim, poolIdx, nested)
	b.gcCollecting = nested
	if err != nil {
		return err
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

// relocateValid relocates every valid page of the victim, pages
// Placement.FastFirst selects first, and returns the latest relocation
// finish (the causal erase floor).
func (b *Base) relocateValid(victim nand.BlockID, poolIdx int, nested bool) (time.Duration, error) {
	var lastReloc time.Duration
	// The deferred-page scratch lives on the Base and is reused across
	// collections: GC runs millions of times per replay and must not
	// allocate per collected block. A nested collection (re-entered
	// through Relocate) detaches instead — sharing the backing array
	// while the outer pass still appends to or ranges it would silently
	// corrupt the outer victim's page list.
	deferred := b.gcDeferred[:0]
	if nested {
		deferred = nil
	}
	fastFirst := b.place.FastFirst
	for page := 0; page < b.cfg.PagesPerBlock; page++ {
		ppn := b.cfg.PPNForBlockPage(victim, page)
		if b.dev.State(ppn) != nand.PageValid {
			continue
		}
		if fastFirst != nil && !fastFirst(b.dev.PeekOOB(ppn)) {
			deferred = append(deferred, page)
			continue
		}
		fin, err := b.relocate(ppn, poolIdx)
		if err != nil {
			return 0, err
		}
		lastReloc = max(lastReloc, fin)
	}
	if !nested {
		// Hand the (possibly grown) array back before the second pass;
		// any collection nested under it detaches, so the range below
		// cannot be clobbered.
		b.gcDeferred = deferred[:0]
	}
	for _, page := range deferred {
		fin, err := b.relocate(b.cfg.PPNForBlockPage(victim, page), poolIdx)
		if err != nil {
			return 0, err
		}
		lastReloc = max(lastReloc, fin)
	}
	return lastReloc, nil
}

// relocate copies one valid page through Placement.Relocate, remaps its
// LPN and invalidates the source. It returns the device's last finish
// time after the copy, which under the causal model is the copy's
// program finish.
func (b *Base) relocate(ppn nand.PPN, poolIdx int) (time.Duration, error) {
	oob, readCost, err := b.dev.Read(ppn)
	if err != nil {
		return 0, err
	}
	if b.causal {
		b.dev.After(b.dev.LastFinish()) // program waits for its source read
	}
	progCost, newPPN, err := b.place.Relocate(oob)
	if err != nil {
		return 0, err
	}
	fin := b.dev.LastFinish()
	b.table.Set(oob.LPN, newPPN)
	if err := b.Invalidate(ppn); err != nil {
		return 0, err
	}
	b.stats.GCCopies.Inc()
	b.stats.GCPoolCopies[poolIdx].Inc()
	b.stats.GCLatency.Observe(readCost + progCost)
	return fin, nil
}
