package main

import (
	"sort"
	"time"
)

// refNominal is the time the reference kernel is defined to take. Host
// times other than set-up are reported as wall time x refNominal /
// kernel time, with the kernel run next to each simulation: seconds on
// a host where the kernel takes 100 ms. On the reference host (2-vCPU
// KVM guest, Intel Xeon at 2.1 GHz) the kernel takes 85-110 ms. That
// host's speed drifts by up to ±25% over tens of seconds; a fixed kernel
// run beside the simulator tracks the drift, and no change to the
// simulator can move it.
const refNominal = 100 * time.Millisecond

// refKernel is fixed CPU and memory work shaped like the simulator's:
// random reads and writes over a few MB of slices, map updates and
// small sorts. It uses no simulator code.
type refKernel struct {
	table []uint64
	m     map[uint64]uint32
	keys  []uint64
	sink  uint64
}

const refTableBits = 19

func newRefKernel() *refKernel {
	k := &refKernel{table: make([]uint64, 1<<refTableBits), m: make(map[uint64]uint32, 1<<15),
		keys: make([]uint64, 4096)}
	for i := range k.table {
		k.table[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	k.run() // fault the table in and grow the map
	return k
}

// run executes the kernel once and returns its wall time in seconds.
func (k *refKernel) run() float64 {
	const mask = 1<<refTableBits - 1
	start := time.Now()
	x := uint64(88172645463325252)
	for round := 0; round < 40; round++ {
		for i := 0; i < 25_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := x & mask
			v := k.table[j]
			if v&3 == 0 {
				k.table[(j*31)&mask] ^= v
			} else {
				k.sink += v >> 3
			}
			key := x & (1<<15 - 1)
			k.m[key] += uint32(v)
			if i&7 == 0 {
				delete(k.m, key^5)
			}
		}
		for i := range k.keys {
			k.keys[i] = k.table[(x+uint64(i)*977)&mask]
		}
		sort.Slice(k.keys, func(a, b int) bool { return k.keys[a] < k.keys[b] })
		k.sink += k.keys[len(k.keys)/2]
	}
	return time.Since(start).Seconds()
}

// scale is the factor that turns a wall time measured between kernel
// runs taking before and after seconds into reference-host seconds.
func scale(before, after float64) float64 {
	return refNominal.Seconds() / ((before + after) / 2)
}
