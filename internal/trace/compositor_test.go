package trace

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// makeTimedChild builds n requests with non-decreasing times from a
// seeded source, payload-tagged so merged output can be traced back.
func makeTimedChild(rng *rand.Rand, n int, tenant uint8) []Request {
	reqs := make([]Request, n)
	var t time.Duration
	for i := range reqs {
		t += time.Duration(rng.Intn(5)) * time.Millisecond // 0 allowed: exercises ties
		op := OpRead
		if rng.Intn(2) == 0 {
			op = OpWrite
		}
		reqs[i] = Request{
			Time:   t,
			Op:     op,
			Offset: uint64(rng.Intn(1<<20)) * 4096,
			Size:   4096 * uint32(1+rng.Intn(4)),
			Hot:    rng.Intn(4) == 0,
			Tenant: tenant, // overwritten by the compositor; set to prove it
		}
	}
	return reqs
}

// transform applies a child's arrival process the way the compositor
// documents it, for building expected outputs independently.
func transform(reqs []Request, c CompositorChild) []Request {
	out := make([]Request, len(reqs))
	var last time.Duration
	for i, r := range reqs {
		t := r.Time
		if t < last {
			t = last
		}
		last = t
		if c.Share > 0 {
			t = time.Duration(i) * shareQuantum / time.Duration(c.Share)
		} else if c.RateScale > 0 && c.RateScale != 1 {
			t = time.Duration(float64(t) / c.RateScale)
		}
		r.Time = c.Offset + t
		r.Tenant = c.Tenant
		r.Offset += c.AddrOffset
		out[i] = r
	}
	return out
}

// TestCompositorIsStableSort drives randomized children through the
// compositor and checks the merged output equals a stable sort of the
// transformed children by arrival time: ties resolve to the lowest
// child index, per-child order is preserved, and every request comes
// out exactly once.
func TestCompositorIsStableSort(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		k := 2 + rng.Intn(4)
		children := make([]CompositorChild, k)
		var expected []Request
		for i := 0; i < k; i++ {
			reqs := makeTimedChild(rng, 1+rng.Intn(40), uint8(i))
			children[i] = CompositorChild{
				Stream:     NewSliceStream(reqs),
				Tenant:     uint8(i),
				RateScale:  []float64{0, 1, 2, 0.5}[rng.Intn(4)],
				Offset:     time.Duration(rng.Intn(3)) * time.Millisecond,
				AddrOffset: uint64(i) << 30,
			}
			expected = append(expected, transform(reqs, children[i])...)
		}
		// Stable sort by time alone: the flattened order is child-major,
		// so among equal times stability keeps lower children first and
		// per-child order intact — exactly the compositor's contract.
		sort.SliceStable(expected, func(a, b int) bool { return expected[a].Time < expected[b].Time })

		comp := NewCompositor(children...)
		var got []Request
		for {
			r, ok := comp.Next()
			if !ok {
				break
			}
			got = append(got, r)
		}
		if err := comp.Err(); err != nil {
			t.Fatalf("trial %d: unexpected compositor error: %v", trial, err)
		}
		if len(got) != len(expected) {
			t.Fatalf("trial %d: merged %d requests, want %d", trial, len(got), len(expected))
		}
		for i := range got {
			if got[i] != expected[i] {
				t.Fatalf("trial %d: request %d = %+v, want %+v", trial, i, got[i], expected[i])
			}
		}
	}
}

// TestCompositorShareMode checks weighted round-robin interleaving:
// a Share-2 child emits twice per turn of a Share-1 child, and the
// merged stream is still time-ordered with the index tie-break.
func TestCompositorShareMode(t *testing.T) {
	mk := func(n int, size uint32) []Request {
		reqs := make([]Request, n)
		for i := range reqs {
			reqs[i] = Request{Op: OpWrite, Offset: uint64(i) * 4096, Size: size}
		}
		return reqs
	}
	comp := NewCompositor(
		CompositorChild{Stream: NewSliceStream(mk(4, 1000)), Tenant: 0, Share: 2},
		CompositorChild{Stream: NewSliceStream(mk(4, 2000)), Tenant: 1, Share: 1},
	)
	var tenants []uint8
	var lastTime time.Duration
	for {
		r, ok := comp.Next()
		if !ok {
			break
		}
		if r.Time < lastTime {
			t.Fatalf("share-mode output went back in time: %v after %v", r.Time, lastTime)
		}
		lastTime = r.Time
		tenants = append(tenants, r.Tenant)
	}
	// Child 0 (share 2) arrives at 0, q/2, q, 3q/2; child 1 (share 1)
	// at 0, q, 2q, 3q. Ties (t=0, t=q) go to child 0.
	want := []uint8{0, 1, 0, 0, 1, 0, 1, 1}
	if len(tenants) != len(want) {
		t.Fatalf("merged %d requests, want %d", len(tenants), len(want))
	}
	for i := range want {
		if tenants[i] != want[i] {
			t.Fatalf("emission order %v, want %v", tenants, want)
		}
	}
}

// TestCompositorClampsNonMonotone checks the MSRReader-style handling
// of a child whose source times regress: the time is clamped, the
// stream keeps going, and the first offense is latched for Err.
func TestCompositorClampsNonMonotone(t *testing.T) {
	bad := []Request{
		{Time: 10 * time.Millisecond, Op: OpWrite, Offset: 0, Size: 4096},
		{Time: 2 * time.Millisecond, Op: OpWrite, Offset: 4096, Size: 4096}, // regresses
		{Time: 12 * time.Millisecond, Op: OpWrite, Offset: 8192, Size: 4096},
	}
	comp := NewCompositor(CompositorChild{Stream: NewSliceStream(bad), Tenant: 3})
	var times []time.Duration
	for {
		r, ok := comp.Next()
		if !ok {
			break
		}
		times = append(times, r.Time)
	}
	if len(times) != len(bad) {
		t.Fatalf("clamped stream yielded %d requests, want %d (clamp must not drop)", len(times), len(bad))
	}
	wantTimes := []time.Duration{10 * time.Millisecond, 10 * time.Millisecond, 12 * time.Millisecond}
	for i, w := range wantTimes {
		if times[i] != w {
			t.Fatalf("times = %v, want %v", times, wantTimes)
		}
	}
	err := comp.Err()
	if err == nil {
		t.Fatal("Err() = nil after a non-monotone source time")
	}
	if got := err.Error(); got != "trace: compositor child 0 (tenant 3): non-monotone source time 2ms after 10ms (clamped)" {
		t.Fatalf("unexpected error text: %q", got)
	}
}

// TestCompositorSingleChildIdentity checks the Tenants=1 degenerate
// case: one timed child with no scaling, offset or address shift emits
// the source stream unchanged (the bit-identity anchor the harness
// ladder test builds on).
func TestCompositorSingleChildIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reqs := makeTimedChild(rng, 100, 0)
	comp := NewCompositor(CompositorChild{Stream: NewSliceStream(reqs)})
	for i := range reqs {
		r, ok := comp.Next()
		if !ok {
			t.Fatalf("stream ended at %d, want %d requests", i, len(reqs))
		}
		if r != reqs[i] {
			t.Fatalf("request %d = %+v, want %+v", i, r, reqs[i])
		}
	}
	if _, ok := comp.Next(); ok {
		t.Fatal("stream yielded extra requests")
	}
	if err := comp.Err(); err != nil {
		t.Fatalf("Err() = %v, want nil", err)
	}
}

// TestCompositorNextAllocs pins the merge hot path at zero
// steady-state allocations (the flashvet hotpath root contract; the
// top-level BenchmarkCompositorEventLoop guards the full replay).
func TestCompositorNextAllocs(t *testing.T) {
	reqs := make([]Request, 4096)
	for i := range reqs {
		reqs[i] = Request{Time: time.Duration(i) * time.Millisecond, Op: OpWrite, Offset: uint64(i) * 4096, Size: 4096}
	}
	comp := NewCompositor(
		CompositorChild{Stream: NewSliceStream(reqs[:2048]), Tenant: 0},
		CompositorChild{Stream: NewSliceStream(reqs[2048:]), Tenant: 1},
	)
	allocs := testing.AllocsPerRun(2000, func() {
		comp.Next()
	})
	if allocs != 0 {
		t.Fatalf("Compositor.Next allocates %.1f per op, want 0", allocs)
	}
}

// TestStatsTenantRequests checks per-tenant request counting, including
// the fold of tenant IDs beyond MaxTenants into the last slot.
func TestStatsTenantRequests(t *testing.T) {
	var s Stats
	for i := 0; i < 5; i++ {
		s.Observe(Request{Op: OpWrite, Size: 4096, Tenant: 0})
	}
	for i := 0; i < 3; i++ {
		s.Observe(Request{Op: OpRead, Size: 4096, Tenant: 2})
	}
	s.Observe(Request{Op: OpRead, Size: 4096, Tenant: MaxTenants + 5})
	if s.TenantRequests[0] != 5 || s.TenantRequests[2] != 3 {
		t.Fatalf("TenantRequests = %v, want 5 in slot 0 and 3 in slot 2", s.TenantRequests)
	}
	if s.TenantRequests[MaxTenants-1] != 1 {
		t.Fatalf("tenant %d should fold into slot %d: %v", MaxTenants+5, MaxTenants-1, s.TenantRequests)
	}
	if s.Requests != 9 {
		t.Fatalf("Requests = %d, want 9", s.Requests)
	}
}
