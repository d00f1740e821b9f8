package ftl

import (
	"fmt"
	"time"

	"ppbflash/internal/hotness"
	"ppbflash/internal/nand"
	"ppbflash/internal/vblock"
)

// HotColdSplit is the classic hot/cold separation FTL (the Chang/Hsieh
// line of work the paper builds on): hot and cold data fill *different*
// physical blocks, which keeps GC cheap, but placement ignores the page
// speed asymmetry entirely. The ablation pair GreedySpeed/HotColdSplit
// brackets PPB: speed-aware-but-mixed vs separated-but-speed-blind.
type HotColdSplit struct {
	Base
	ident hotness.Identifier

	active [2]nand.BlockID // per area
	open   [2]bool
}

var _ FTL = (*HotColdSplit)(nil)

// NewHotColdSplit builds the separation-only FTL. A nil identifier
// defaults to the paper's size-check at the device page size.
func NewHotColdSplit(dev *nand.Device, opts Options, ident hotness.Identifier) (*HotColdSplit, error) {
	vbm, err := vblock.NewManager(dev.Config(), 1, 2)
	if err != nil {
		return nil, err
	}
	vbm.MarkHotPools(int(hotness.AreaHot))
	if ident == nil {
		ident = hotness.SizeCheck{ThresholdBytes: dev.Config().PageSize}
	}
	h := &HotColdSplit{ident: ident}
	h.Base, err = NewBase(dev, vbm, opts,
		Placement{Host: h.host, Relocate: h.program})
	if err != nil {
		return nil, err
	}
	return h, nil
}

// Name implements FTL.
func (h *HotColdSplit) Name() string { return "hotcold-split" }

// host tags the page by the identifier's area and programs it there.
func (h *HotColdSplit) host(lpn uint64, reqSize int) (time.Duration, nand.PPN, error) {
	tag := tagCold
	if h.ident.Classify(lpn, reqSize) == hotness.AreaHot {
		tag = tagHot
	}
	return h.program(nand.OOB{LPN: lpn, Tag: tag})
}

// program appends to the active block of the page's area.
//
//flashvet:hotpath
func (h *HotColdSplit) program(oob nand.OOB) (time.Duration, nand.PPN, error) {
	area := hotness.AreaCold
	if oob.Tag == tagHot {
		area = hotness.AreaHot
	}
	if !h.open[area] {
		vb, err := h.vbm.AllocateFirst(int(area))
		if err != nil {
			return 0, 0, fmt.Errorf("%w (hotcold-split)", ErrNoSpace)
		}
		h.active[area], h.open[area] = vb.Block, true
	}
	cost, ppn, full, err := h.ProgramNext(h.active[area], oob)
	if err != nil {
		return 0, 0, err
	}
	if full {
		h.open[area] = false
	}
	return cost, ppn, nil
}
