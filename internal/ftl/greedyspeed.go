package ftl

import (
	"fmt"
	"time"

	"ppbflash/internal/hotness"
	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// Tag values stored in page OOB by the hotness-aware baselines.
const (
	tagCold uint8 = iota
	tagHot
)

// GreedySpeed is the strawman the paper argues against in §2.2 and
// Figure 3: it applies a conventional hot/cold identifier and places hot
// data directly on fast pages and cold data on slow pages — of the *same*
// physical blocks. Reads get faster, but every block ends up half
// long-lived cold data and half quickly-invalidated hot data, so GC must
// copy roughly half a block per erase.
type GreedySpeed struct {
	Base
	ident hotness.Identifier

	slow, fast       vblock.VB
	slowOpen, fastOk bool
}

var _ FTL = (*GreedySpeed)(nil)

// NewGreedySpeed builds the strawman FTL. A nil identifier defaults to
// the paper's size-check at the device page size.
func NewGreedySpeed(dev *nand.Device, opts Options, ident hotness.Identifier) (*GreedySpeed, error) {
	vbm, err := vblock.NewManager(dev.Config(), 2, 2)
	if err != nil {
		return nil, err
	}
	// The strawman mixes hot and cold data in one shared pool, so the
	// whole pool counts as hot-stream for affinity dispatch purposes.
	vbm.MarkHotPools(0)
	if ident == nil {
		ident = hotness.SizeCheck{ThresholdBytes: dev.Config().PageSize}
	}
	g := &GreedySpeed{ident: ident}
	g.Base, err = NewBase(dev, vbm, opts,
		Placement{Host: g.host, Relocate: g.program})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// Name implements FTL.
func (g *GreedySpeed) Name() string { return "greedy-speed" }

// host tags the page by the identifier's area and places it.
func (g *GreedySpeed) host(lpn uint64, reqSize int) (time.Duration, nand.PPN, error) {
	tag := tagCold
	if g.ident.Classify(lpn, reqSize) == hotness.AreaHot {
		tag = tagHot
	}
	return g.program(nand.OOB{LPN: lpn, Tag: tag})
}

// program places the page by its tag: hot data goes to the open fast VB
// (when one exists), cold data to the open slow VB. When the preferred VB
// is unavailable the write spills into the other — the strawman has no
// pairing discipline to protect.
//
//flashvet:hotpath
func (g *GreedySpeed) program(oob nand.OOB) (time.Duration, nand.PPN, error) {
	var vb *vblock.VB
	if oob.Tag == tagHot {
		if g.openFast() {
			vb = &g.fast
		} else if g.openSlow() {
			vb = &g.slow
		}
	} else {
		if g.openSlow() {
			vb = &g.slow
		} else if g.openFast() {
			vb = &g.fast
		}
	}
	if vb == nil {
		return 0, 0, fmt.Errorf("%w (greedy-speed)", ErrNoSpace)
	}
	cost, ppn, vbFull, err := g.ProgramNext(vb.Block, oob)
	if err != nil {
		return 0, 0, err
	}
	if vbFull {
		if vb == &g.slow {
			g.slowOpen = false
		} else {
			g.fastOk = false
		}
	}
	return cost, ppn, nil
}

// openSlow reports whether a slow VB is open, opening part 0 of a
// fresh block if none is.
func (g *GreedySpeed) openSlow() bool {
	if g.slowOpen {
		return true
	}
	vb, err := g.vbm.AllocateFirst(0) // single shared pool
	if err != nil {
		return false
	}
	g.slow, g.slowOpen = vb, true
	return true
}

// openFast reports whether a fast VB is open, opening one from the
// pending queue (a block whose slow half already filled) if none is.
func (g *GreedySpeed) openFast() bool {
	if !g.fastOk {
		g.fast, g.fastOk = g.vbm.OpenPendingGroup(0, true)
	}
	return g.fastOk
}
