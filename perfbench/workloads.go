package main

import (
	"fmt"

	"ppbflash/internal/harness"
	"ppbflash/internal/trace"
	"ppbflash/internal/workload"
)

// A benchmark workload: one harness.RunSpec, built from the run's seed.
// Every workload is the simulator's closed-loop host model driven as a
// batch job over a prefilled device.
type benchWorkload struct {
	name string
	// scale sizes the device and the trace; its Seed is set per run.
	scale harness.Scale
	spec  func(s harness.Scale) harness.RunSpec
}

// workloads lists the benchmark workloads. The reasons each one is here
// are recorded in BENCHMARK.json.
var workloads = []benchWorkload{
	{
		// The paper's headline configuration at bench scale: steady-state
		// GC at WAF ~2.3, with generator Zipf draws, the two-level LRU and
		// PPB placement carrying much of the work.
		name:  "websql-ppb",
		scale: harness.Scale{DeviceDivisor: 32, WriteTurnover: 2},
		spec: func(s harness.Scale) harness.RunSpec {
			return harness.RunSpec{Name: "websql-ppb", Device: s.DeviceConfig(16<<10, 2),
				Kind: harness.KindPPB, Workload: s.WebSQLWorkload(), Prefill: true}
		},
	},
	{
		// Figure 3's strawman: WAF ~370, so GC relocation and the greedy
		// slow/fast fallback do nearly all the work. The device is 8x
		// smaller than bench scale and the turnover 4x lower so that one
		// simulation takes seconds rather than the ~47 s of bench scale.
		name:  "websql-greedy",
		scale: harness.Scale{DeviceDivisor: 256, WriteTurnover: 0.5},
		spec: func(s harness.Scale) harness.RunSpec {
			return harness.RunSpec{Name: "websql-greedy", Device: s.DeviceConfig(16<<10, 2),
				Kind: harness.KindGreedySpeed, Workload: s.WebSQLWorkload(), Prefill: true}
		},
	},
	{
		// The multi-tenant stack: four tenants through the compositor, a
		// deep event heap at QD16, tenant-partition dispatch over 4 chips x
		// 2 planes, erase suspension and deferral. Reliability stays off:
		// its presets raise this mix's WAF from ~5.5 to ~29.
		name:  "tenants4-qd16",
		scale: harness.Scale{DeviceDivisor: 32, WriteTurnover: 2},
		spec: func(s harness.Scale) harness.RunSpec {
			return harness.RunSpec{Name: "tenants4-qd16",
				Device: s.DeviceConfig(16<<10, 2).WithChips(4).WithPlanes(2),
				Kind:   harness.KindPPB, Workload: s.TenantWorkloads(benchTenants), Prefill: true,
				QueueDepth: 16, Dispatch: "tenant-partition", Tenants: benchTenants,
				Suspend: "erase", DeferErases: true}
		},
	},
}

// benchTenants is the tenant population of tenants4-qd16.
const benchTenants = 4

func workloadByName(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q", name)
}

// The constants below mirror harness.Scale's private trace sizing, so
// that tenantChildren can rebuild Scale.TenantWorkloads with every child
// generator reachable. The traced run's result is compared with
// harness.Run's on every run, so any drift fails the benchmark.
const (
	minRequests               = 10_000
	websqlWriteBytesPerReq    = 2900
	mediaWriteBytesPerReq     = 28 << 10
	hotTenantWriteBytesPerReq = 0.7 * 4096
	coldTenantWriteBytes      = 0.2 * 262144
	tenantRegionAlign         = 1 << 20
)

func requestsFor(s harness.Scale, logicalBytes uint64, writeBytesPerReq float64) int {
	n := int(s.WriteTurnover * float64(logicalBytes) / writeBytesPerReq)
	if n < minRequests {
		n = minRequests
	}
	return n
}

// tenantChildren returns the compositor children of
// s.TenantWorkloads(n) for n >= 2, with wrap applied to each child
// generator.
func tenantChildren(s harness.Scale, n int, logicalBytes uint64, wrap func(trace.Stream) trace.Stream) []trace.CompositorChild {
	region := (logicalBytes / uint64(n)) &^ (tenantRegionAlign - 1)
	children := make([]trace.CompositorChild, n)
	for i := range children {
		seed := s.Seed + int64(i)
		var g trace.Stream
		switch i % 4 {
		case 0:
			g = workload.NewWebSQL(workload.WebSQLConfig{LogicalBytes: region,
				Requests: requestsFor(s, region, websqlWriteBytesPerReq), Seed: seed})
		case 1:
			g = workload.NewMediaServer(workload.MediaConfig{LogicalBytes: region,
				Requests: requestsFor(s, region, mediaWriteBytesPerReq), Seed: seed})
		case 2:
			g = workload.NewUniform(workload.UniformConfig{LogicalBytes: region,
				Requests: requestsFor(s, region, hotTenantWriteBytesPerReq), Seed: seed,
				ReadFraction: 0.3, Size: 4 << 10})
		default:
			g = workload.NewUniform(workload.UniformConfig{LogicalBytes: region,
				Requests: requestsFor(s, region, coldTenantWriteBytes), Seed: seed,
				ReadFraction: 0.8, Size: 256 << 10})
		}
		children[i] = trace.CompositorChild{Stream: wrap(g), Tenant: uint8(i), Share: 1,
			AddrOffset: uint64(i) * region}
	}
	return children
}
