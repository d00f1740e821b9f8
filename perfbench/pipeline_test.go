package main

import (
	"testing"
	"time"

	"ppbflash/internal/harness"
)

// tinyScales shrinks each workload's device so the test runs in seconds.
var tinyScales = map[string]harness.Scale{
	"websql-ppb":    {DeviceDivisor: 256, WriteTurnover: 0.2, Seed: 7},
	"websql-greedy": {DeviceDivisor: 512, WriteTurnover: 0.2, Seed: 7},
	"tenants4-qd16": {DeviceDivisor: 128, WriteTurnover: 0.2, Seed: 7},
}

// The pipeline the benchmark builds from public constructors must
// simulate exactly what harness.Run does, traced or not, and leave the
// simulator consistent.
func TestPipelineMatchesHarnessRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s, ok := tinyScales[w.name]
			if !ok {
				t.Fatalf("no tiny scale for %s", w.name)
			}
			want, err := harness.Run(w.spec(s))
			if err != nil {
				t.Fatal(err)
			}
			tr := &tracer{}
			p, err := runPipeline(w, s, tr)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.res.Canonical(); got != want.Canonical() {
				t.Fatalf("pipeline result differs from harness.Run:\n got %+v\nwant %+v", got, want.Canonical())
			}
			if err := p.check(); err != nil {
				t.Fatal(err)
			}
			if got := uint64(p.requests); got != p.rm.ReadLatency.Count()+p.rm.WriteLatency.Count() {
				t.Fatalf("%d requests pulled, %d observed", got, p.rm.ReadLatency.Count()+p.rm.WriteLatency.Count())
			}
			if len(tr.spans) > spanHint(want) {
				t.Fatalf("%d spans recorded, spanHint allows %d", len(tr.spans), spanHint(want))
			}

			total, self, calls, overhead := tr.layerTimes([numKinds]spanCost{})
			if calls[kindReplay] != 1 || calls[kindPrefill] != 1 {
				t.Fatalf("want one replay and one prefill span, got %d and %d", calls[kindReplay], calls[kindPrefill])
			}
			if w.spec(s).Tenants > 1 {
				if calls[kindCompose] != int(tr.pulled)+1 || calls[kindNext] < calls[kindCompose] {
					t.Fatalf("compositor spans %d, generator spans %d, requests %d",
						calls[kindCompose], calls[kindNext], tr.pulled)
				}
			} else if calls[kindCompose] != 0 || calls[kindNext] != int(tr.pulled)+1 {
				t.Fatalf("compositor spans %d, generator spans %d, requests %d",
					calls[kindCompose], calls[kindNext], tr.pulled)
			}
			// Without a tracer cost, the layers' self times partition the
			// replay's.
			parts := self[kindNext] + self[kindCompose] + self[kindReplay] +
				self[kindWrite] + self[kindGCWrite] + self[kindRead]
			if overhead != 0 || parts != total[kindReplay] {
				t.Fatalf("layer times sum to %v and overhead %v, replay took %v", parts, overhead, total[kindReplay])
			}
			if total[kindReplay] <= 0 || total[kindReplay] > time.Minute {
				t.Fatalf("implausible replay span %v", total[kindReplay])
			}

			// The tracer's measured cost moves out of the layers into
			// overhead, which stays a part of the replay.
			cost := calibrate(p.f.Manager(), topKind(w.spec(s)))
			_, corrected, _, overhead := tr.layerTimes(cost)
			if overhead <= 0 || overhead >= total[kindReplay] {
				t.Fatalf("tracer overhead %v of a %v replay (costs %+v)", overhead, total[kindReplay], cost)
			}
			if corrected[kindRead] >= self[kindRead] || corrected[kindReplay] >= self[kindReplay] {
				t.Fatalf("tracer cost not taken out: read %v -> %v, replay self %v -> %v",
					self[kindRead], corrected[kindRead], self[kindReplay], corrected[kindReplay])
			}
		})
	}
}

func TestReplayHotnessCountsCalls(t *testing.T) {
	ops := []pageOp{
		{lpn: 1, size: 4096, write: true},    // small write: hot, tracked
		{lpn: 2, size: 1 << 20, write: true}, // bulk write: cold, untracked
		{lpn: 1, size: 1 << 20, write: true}, // tracked page: recorded whatever its size
		{lpn: 2},                             // every read is recorded
	}
	if calls, _ := replayHotness(ops, 1<<12, 16<<10); calls != 3 {
		t.Fatalf("got %d LRU calls, want 3", calls)
	}
}
