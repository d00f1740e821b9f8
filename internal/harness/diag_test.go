package harness

import (
	"testing"
	"time"

	"ppbflash/internal/core"
	"ppbflash/internal/ftl"
	"ppbflash/internal/nand"
)

// TestDiagWebSQL prints placement diagnostics for manual tuning runs:
//
//	go test ./internal/harness -run TestDiagWebSQL -v
func TestDiagWebSQL(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	s := QuickScale
	dev := s.DeviceConfig(16<<10, 2.0)
	wl := s.WebSQLWorkload()
	conv, err := Run(RunSpec{Name: "diag/conv", Device: dev, Kind: KindConventional, Workload: wl, Prefill: true})
	if err != nil {
		t.Fatal(err)
	}
	ppb, err := Run(RunSpec{Name: "diag/ppb", Device: dev, Kind: KindPPB, Workload: wl, Prefill: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{conv, ppb} {
		t.Logf("%s: readTotal=%v writeTotal=%v reads=%d writes=%d unmapped=%d erases=%d copies=%d waf=%.2f fastShare=%.3f migr=%d div=%d dem=%d",
			r.Name, r.ReadTotal, r.WriteTotal, r.HostReadPages, r.HostWritePage, r.UnmappedReads,
			r.Erases, r.GCCopies, r.WAF, r.FastReadShare, r.Migrations, r.Diversions, r.Demotions)
		if r.HostReadPages > 0 {
			t.Logf("%s: mean read = %v", r.Name, r.ReadTotal/time.Duration(r.HostReadPages))
		}
	}

	// Deep-dive into the PPB run with direct access to the FTL.
	dev2, err := nandDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(dev2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := replayWithPrefill(p, wl); err != nil {
		t.Fatal(err)
	}
	ps := p.PPBStats()
	t.Logf("ppb levels: writes icy=%d cold=%d hot=%d iron=%d",
		ps.LevelWrites[0].Value(), ps.LevelWrites[1].Value(), ps.LevelWrites[2].Value(), ps.LevelWrites[3].Value())
	t.Logf("ppb reads by stored tag: icy=%d cold=%d hot=%d iron=%d",
		ps.LevelReads[0].Value(), ps.LevelReads[1].Value(), ps.LevelReads[2].Value(), ps.LevelReads[3].Value())
	t.Logf("ppb demotions: listOverflow=%d stale=%d fastFull=%d migrations=%d diversions=%d",
		ps.Demotions.Value(), ps.StaleDemotions.Value(), ps.FastFullDemotions.Value(),
		ps.Migrations.Value(), ps.Diversions.Value())
	st := p.Stats()
	t.Logf("ppb fast/slow reads: %d/%d", st.FastReads.Value(), st.SlowReads.Value())
}

// TestDiagMedia is the media-server twin of TestDiagWebSQL.
func TestDiagMedia(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	s := QuickScale
	dev := s.DeviceConfig(16<<10, 2.0)
	wl := s.MediaWorkload()
	conv, err := Run(RunSpec{Name: "diag/conv", Device: dev, Kind: KindConventional, Workload: wl, Prefill: true})
	if err != nil {
		t.Fatal(err)
	}
	ppb, err := Run(RunSpec{Name: "diag/ppb", Device: dev, Kind: KindPPB, Workload: wl, Prefill: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{conv, ppb} {
		t.Logf("%s: readTotal=%v writeTotal=%v reads=%d writes=%d erases=%d copies=%d waf=%.2f fastShare=%.3f",
			r.Name, r.ReadTotal, r.WriteTotal, r.HostReadPages, r.HostWritePage,
			r.Erases, r.GCCopies, r.WAF, r.FastReadShare)
	}
	dev2, err := nandDevice(dev)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(dev2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := replayWithPrefill(p, wl); err != nil {
		t.Fatal(err)
	}
	ps := p.PPBStats()
	t.Logf("ppb levels: writes icy=%d cold=%d hot=%d iron=%d",
		ps.LevelWrites[0].Value(), ps.LevelWrites[1].Value(), ps.LevelWrites[2].Value(), ps.LevelWrites[3].Value())
	t.Logf("ppb reads by stored tag: icy=%d cold=%d hot=%d iron=%d",
		ps.LevelReads[0].Value(), ps.LevelReads[1].Value(), ps.LevelReads[2].Value(), ps.LevelReads[3].Value())
	t.Logf("ppb demotions: listOverflow=%d stale=%d fastFull=%d migrations=%d diversions=%d",
		ps.Demotions.Value(), ps.StaleDemotions.Value(), ps.FastFullDemotions.Value(),
		ps.Migrations.Value(), ps.Diversions.Value())
	logPoolGC(t, "ppb", p.Stats())
	logPlacement(t, "ppb", p)
}

// logPlacement scans the device and reports, per stored level tag, how
// many valid pages sit on fast vs slow halves — the ground truth the
// read-latency benefit depends on.
func logPlacement(t *testing.T, name string, f ftl.FTL) {
	t.Helper()
	dev := f.Device()
	cfg := dev.Config()
	var slow, fast [4]int
	for b := 0; b < cfg.TotalBlocks(); b++ {
		for pg := 0; pg < cfg.PagesPerBlock; pg++ {
			ppn := cfg.PPNForBlockPage(nand.BlockID(b), pg)
			if dev.State(ppn) != nand.PageValid {
				continue
			}
			tag := dev.PeekOOB(ppn).Tag
			if tag > 3 {
				continue
			}
			if pg >= cfg.PagesPerBlock/2 {
				fast[tag]++
			} else {
				slow[tag]++
			}
		}
	}
	for lvl := 0; lvl < 4; lvl++ {
		total := slow[lvl] + fast[lvl]
		if total == 0 {
			continue
		}
		t.Logf("%s placement level %d: %d pages, %.1f%% fast", name, lvl, total,
			100*float64(fast[lvl])/float64(total))
	}
}

// logPoolGC prints per-pool GC victim composition (pools: 0=hot/host,
// 1=hot/gc, 2=cold/host, 3=cold/gc for PPB).
func logPoolGC(t *testing.T, name string, st *ftl.Stats) {
	t.Helper()
	for i := range st.GCPoolErases {
		e := st.GCPoolErases[i].Value()
		if e == 0 {
			continue
		}
		c := st.GCPoolCopies[i].Value()
		t.Logf("%s pool %d: erases=%d copies=%d validity=%.2f", name, i, e, c,
			float64(c)/float64(e)/384)
	}
}

func nandDevice(cfg nand.Config) (*nand.Device, error) { return nand.NewDevice(cfg) }

func replayWithPrefill(f ftl.FTL, wl WorkloadBuilder) error {
	logicalBytes := f.LogicalPages() * uint64(f.Device().Config().PageSize)
	const bulk = 1 << 20
	for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
		if err := f.Write(lpn, bulk); err != nil {
			return err
		}
	}
	*f.Stats() = ftl.Stats{}
	return ReplayQueued(f, wl(logicalBytes), nil, ReplayOptions{})
}
