package main

import (
	"time"

	"ppbflash/internal/harness"
	"ppbflash/internal/hotness"
	"ppbflash/internal/trace"
)

// pageOp is one page-level host operation of a workload.
type pageOp struct {
	lpn   uint64
	size  uint32 // byte length of the request the page belongs to
	write bool
}

// pageOps expands the request stream of spec into its page operations,
// in replay order.
func pageOps(spec harness.RunSpec, logicalBytes uint64) []pageOp {
	gen := spec.Workload(logicalBytes)
	var ops []pageOp
	for {
		r, ok := gen.Next()
		if !ok {
			return ops
		}
		first, last := r.Pages(spec.Device.PageSize)
		for lpn := first; lpn <= last; lpn++ {
			ops = append(ops, pageOp{lpn: lpn, size: r.Size, write: r.Op == trace.OpWrite})
		}
	}
}

// replayHotness replays page operations through a two-level LRU sized as
// PPB sizes it by default (1/64 of the logical pages per list, at least
// 64), making the calls PPB makes: a write consults the list and, if the
// page is tracked or the size check calls it hot, records the write; a
// read records the read. PPB runs these inside its Write and Read, so
// replaying them here is how the hotness layer is timed on its own. It
// returns the number of OnWrite/OnRead calls and the time they took.
func replayHotness(ops []pageOp, logicalPages uint64, pageSize int) (int, time.Duration) {
	n := int(logicalPages / 64)
	if n < 64 {
		n = 64
	}
	lru := hotness.NewTwoLevelLRU(n, n)
	ident := hotness.SizeCheck{ThresholdBytes: pageSize}
	var seq uint64
	calls := 0
	start := time.Now()
	for _, op := range ops {
		if !op.write {
			lru.OnRead(op.lpn)
			calls++
			continue
		}
		seq++
		if _, tracked := lru.Level(op.lpn); tracked || ident.Classify(op.lpn, int(op.size)) == hotness.AreaHot {
			lru.OnWrite(op.lpn, seq)
			calls++
		}
	}
	return calls, time.Since(start)
}
