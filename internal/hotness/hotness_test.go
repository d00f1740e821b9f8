package hotness

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLevelProperties(t *testing.T) {
	tests := []struct {
		lvl     Level
		name    string
		hotArea bool
		fast    bool
	}{
		{IcyCold, "icy-cold", false, false},
		{Cold, "cold", false, true},
		{Hot, "hot", true, false},
		{IronHot, "iron-hot", true, true},
	}
	for _, tt := range tests {
		if tt.lvl.String() != tt.name {
			t.Errorf("String() = %q, want %q", tt.lvl.String(), tt.name)
		}
		if tt.lvl.HotArea() != tt.hotArea {
			t.Errorf("%v HotArea() = %v", tt.lvl, tt.lvl.HotArea())
		}
		if tt.lvl.Fast() != tt.fast {
			t.Errorf("%v Fast() = %v", tt.lvl, tt.lvl.Fast())
		}
		if !tt.lvl.Valid() {
			t.Errorf("%v should be valid", tt.lvl)
		}
	}
	if Level(7).Valid() {
		t.Error("Level(7) should be invalid")
	}
	if Level(7).String() != "Level(7)" {
		t.Errorf("bad fallback string %q", Level(7).String())
	}
}

func TestAreaEntryLevels(t *testing.T) {
	if AreaHot.EntryLevel() != Hot {
		t.Error("hot-area data must enter at Hot (slow pages first)")
	}
	if AreaCold.EntryLevel() != IcyCold {
		t.Error("cold-area data must enter at IcyCold (slow pages first)")
	}
	if AreaHot.String() != "hot" || AreaCold.String() != "cold" {
		t.Error("area names")
	}
}

func TestSizeCheck(t *testing.T) {
	id := SizeCheck{ThresholdBytes: 16 * 1024}
	if id.Name() != "size-check" {
		t.Error("name")
	}
	if got := id.Classify(0, 4*1024); got != AreaHot {
		t.Errorf("4K write = %v, want hot", got)
	}
	if got := id.Classify(0, 16*1024); got != AreaCold {
		t.Errorf("16K write = %v, want cold (boundary is strict <)", got)
	}
	if got := id.Classify(0, 1<<20); got != AreaCold {
		t.Errorf("1M write = %v, want cold", got)
	}
}

func TestRecencyIdentifier(t *testing.T) {
	id := NewRecency(2)
	if id.Name() != "recency" {
		t.Error("name")
	}
	if id.Classify(1, 0) != AreaCold {
		t.Error("first touch should be cold")
	}
	if id.Classify(1, 0) != AreaHot {
		t.Error("second touch should be hot")
	}
	id.Classify(2, 0)
	id.Classify(3, 0) // evicts 1 (window 2)
	if id.Classify(1, 0) != AreaCold {
		t.Error("evicted LPN should be cold again")
	}
}

func TestStaticIdentifier(t *testing.T) {
	if (Static{Result: AreaHot}).Classify(9, 9) != AreaHot {
		t.Error("static hot")
	}
	if (Static{Result: AreaCold}).Name() != "static-cold" {
		t.Error("static name")
	}
}

func TestTwoLevelBasicFlow(t *testing.T) {
	tr := NewTwoLevelLRU(4, 4)
	lvl, dem, demoted := tr.OnWrite(10, 1)
	if lvl != Hot || demoted {
		t.Fatalf("first write: %v %v", lvl, dem)
	}
	if got, ok := tr.Level(10); !ok || got != Hot {
		t.Fatalf("Level = %v %v", got, ok)
	}
	// A read promotes hot -> iron-hot.
	lvl, dem, demoted, ok := tr.OnRead(10)
	if !ok || lvl != IronHot || demoted {
		t.Fatalf("read promote: %v %v %v", lvl, dem, ok)
	}
	if got, _ := tr.Level(10); got != IronHot {
		t.Fatalf("after promote: %v", got)
	}
	// An update of iron-hot data keeps it iron-hot.
	lvl, _, _ = tr.OnWrite(10, 2)
	if lvl != IronHot {
		t.Fatalf("iron update: %v", lvl)
	}
	if seq, ok := tr.LastWrite(10); !ok || seq != 2 {
		t.Fatalf("LastWrite = %d %v", seq, ok)
	}
}

func TestTwoLevelHotOverflowDemotesToColdArea(t *testing.T) {
	tr := NewTwoLevelLRU(2, 2)
	tr.OnWrite(1, 1)
	tr.OnWrite(2, 2)
	_, dem, demoted := tr.OnWrite(3, 3)
	if !demoted || dem.LPN != 1 || dem.LastWrite != 1 {
		t.Fatalf("demotion = %+v (%v), want LPN 1", dem, demoted)
	}
	if _, ok := tr.Level(1); ok {
		t.Error("demoted entry still tracked")
	}
}

func TestTwoLevelIronOverflowDemotesTailToHot(t *testing.T) {
	tr := NewTwoLevelLRU(2, 2)
	// Fill iron: write then read 20, 21.
	for _, lpn := range []uint64{20, 21} {
		tr.OnWrite(lpn, 1)
		tr.OnRead(lpn)
	}
	// Fill hot: 30, 31.
	tr.OnWrite(30, 2)
	tr.OnWrite(31, 2)
	// Promote 30: iron overflows and its tail (20) drops to the hot
	// head. The promotion itself freed a hot slot, so nothing can leave
	// the area through OnRead — every promotion is a 1-for-1 swap.
	lvl, dem, demoted, ok := tr.OnRead(30)
	if !ok || lvl != IronHot {
		t.Fatalf("promotion failed: %v %v", lvl, ok)
	}
	if demoted {
		t.Fatalf("OnRead demoted %+v out of the area; promotion must be a swap", dem)
	}
	if got, _ := tr.Level(20); got != Hot {
		t.Errorf("iron tail should be demoted to hot, got %v", got)
	}
	if got, _ := tr.Level(31); got != Hot {
		t.Errorf("31 should still be hot, got %v", got)
	}
	if tr.IronLen() != 2 || tr.HotLen() != 2 {
		t.Errorf("lens = %d/%d, want 2/2", tr.IronLen(), tr.HotLen())
	}
}

func TestTwoLevelOnReadUnknown(t *testing.T) {
	tr := NewTwoLevelLRU(2, 2)
	if _, _, _, ok := tr.OnRead(99); ok {
		t.Error("unknown LPN should not be hot-area data")
	}
}

func TestTwoLevelDemote(t *testing.T) {
	tr := NewTwoLevelLRU(1, 2)
	tr.OnWrite(1, 1)
	tr.OnRead(1) // 1 in iron
	tr.OnWrite(2, 2)
	// Demote iron entry 1: falls to hot head, hot cap 1 evicts 2.
	dem, demoted := tr.Demote(1)
	if !demoted || dem.LPN != 2 {
		t.Fatalf("demote cascade = %+v (%v)", dem, demoted)
	}
	if got, _ := tr.Level(1); got != Hot {
		t.Errorf("1 should be hot, got %v", got)
	}
	// Demote hot entry 1: leaves the area entirely.
	dem, demoted = tr.Demote(1)
	if !demoted || dem.LPN != 1 {
		t.Fatalf("hot demote = %+v (%v)", dem, demoted)
	}
	if _, ok := tr.Level(1); ok {
		t.Error("1 still tracked")
	}
	if dem, demoted := tr.Demote(42); demoted {
		t.Errorf("demoting unknown LPN = %v", dem)
	}
}

func TestTwoLevelRemove(t *testing.T) {
	tr := NewTwoLevelLRU(2, 2)
	tr.OnWrite(1, 1)
	tr.OnWrite(2, 1)
	tr.OnRead(2)
	tr.Remove(1)
	tr.Remove(2)
	tr.Remove(3) // no-op
	if tr.HotLen() != 0 || tr.IronLen() != 0 {
		t.Error("remove failed")
	}
}

func TestTwoLevelLRUOrderIsRecency(t *testing.T) {
	tr := NewTwoLevelLRU(3, 3)
	tr.OnWrite(1, 1)
	tr.OnWrite(2, 2)
	tr.OnWrite(3, 3)
	tr.OnWrite(1, 4) // refresh 1; LRU tail is now 2
	_, dem, demoted := tr.OnWrite(4, 5)
	if !demoted || dem.LPN != 2 {
		t.Fatalf("LRU eviction = %+v (%v), want 2", dem, demoted)
	}
}

func TestFreqTableLifecycle(t *testing.T) {
	f := NewDenseFreqTable(100, 2)
	if _, ok := f.Level(5); ok {
		t.Fatal("untracked LPN reported")
	}
	f.OnWrite(5)
	if lvl, ok := f.Level(5); !ok || lvl != IcyCold {
		t.Fatalf("fresh cold write = %v %v, want icy-cold", lvl, ok)
	}
	if lvl, ok := f.OnRead(5); !ok || lvl != IcyCold {
		t.Fatalf("after 1 read = %v, want icy-cold (threshold 2)", lvl)
	}
	if lvl, _ := f.OnRead(5); lvl != Cold {
		t.Fatalf("after 2 reads = %v, want cold", lvl)
	}
	// Rewrite resets frequency: new data at the same address.
	f.OnWrite(5)
	if lvl, _ := f.Level(5); lvl != IcyCold {
		t.Fatalf("after rewrite = %v, want icy-cold", lvl)
	}
	f.Remove(5)
	if _, ok := f.Level(5); ok {
		t.Fatal("removed LPN still tracked")
	}
	if _, ok := f.OnRead(5); ok {
		t.Fatal("OnRead of removed LPN")
	}
}

func TestFreqTableDemotedSeed(t *testing.T) {
	f := NewDenseFreqTable(100, 3)
	f.InsertDemoted(9)
	if lvl, _ := f.Level(9); lvl != IcyCold {
		t.Fatalf("demoted entry = %v, want icy-cold", lvl)
	}
	if lvl, _ := f.OnRead(9); lvl != Cold {
		t.Fatalf("one read should re-promote a demoted entry, got %v", lvl)
	}
}

func TestFreqTableDefaultThreshold(t *testing.T) {
	f := NewDenseFreqTable(4, 0) // promoteAt defaults to 2
	f.OnWrite(1)
	f.OnRead(1)
	if lvl, _ := f.Level(1); lvl != IcyCold {
		t.Error("default threshold should be 2 reads")
	}
	f.OnRead(1)
	if lvl, _ := f.Level(1); lvl != Cold {
		t.Error("2 reads should reach cold")
	}
}

func TestFreqTableCounterSaturates(t *testing.T) {
	f := NewDenseFreqTable(8, 2)
	f.set(7, ^uint32(0))
	if lvl, ok := f.OnRead(7); !ok || lvl != Cold {
		t.Fatalf("saturated read = %v %v", lvl, ok)
	}
	if f.dense[7] != ^uint32(0) || f.ReadCount(7) != ^uint32(0)-1 || f.Len() != 1 {
		t.Errorf("counter overflowed: slot %d, count %d, len %d", f.dense[7], f.ReadCount(7), f.Len())
	}
}

// Property: the two-level tracker never tracks an LPN in both lists, and
// list sizes never exceed their capacities.
func TestPropertyTwoLevelInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hotCap, ironCap := 1+rng.Intn(8), 1+rng.Intn(8)
		tr := NewTwoLevelLRU(hotCap, ironCap)
		for step := 0; step < 400; step++ {
			lpn := uint64(rng.Intn(24))
			switch rng.Intn(4) {
			case 0, 1:
				tr.OnWrite(lpn, uint64(step))
			case 2:
				tr.OnRead(lpn)
			case 3:
				tr.Demote(lpn)
			}
			if tr.HotLen() > hotCap || tr.IronLen() > ironCap {
				t.Logf("capacity exceeded: %d/%d hot, %d/%d iron",
					tr.HotLen(), hotCap, tr.IronLen(), ironCap)
				return false
			}
			if tr.hot.contains(lpn) && tr.iron.contains(lpn) {
				t.Logf("LPN %d in both lists", lpn)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
