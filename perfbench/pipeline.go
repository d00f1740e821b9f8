package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"ppbflash/internal/core"
	"ppbflash/internal/ftl"
	"ppbflash/internal/harness"
	"ppbflash/internal/nand"
	"ppbflash/internal/trace"
	"ppbflash/internal/vblock"
)

// buildFTL builds the strategy of spec over dev from the public
// constructors, resolving the named knobs the way harness.Run does. It
// refuses knobs the benchmark workloads never set, so the pipeline
// cannot silently diverge from harness.Run.
func buildFTL(spec harness.RunSpec, dev *nand.Device) (ftl.FTL, error) {
	if spec.Dependency != "" || spec.Reliability != "" || spec.Wear != "" || spec.Seed != 0 ||
		spec.OpenLoop || spec.FTLOptions.Reliability != nil {
		return nil, fmt.Errorf("spec %q sets a knob the pipeline does not mirror", spec.Name)
	}
	opts := spec.FTLOptions
	if spec.Dispatch != "" {
		p, err := vblock.DispatchByName(spec.Dispatch)
		if err != nil {
			return nil, err
		}
		opts.Dispatch = p
	}
	if spec.DeferErases {
		opts.DeferErases = true
	}
	if spec.Suspend != "" {
		p, err := nand.SuspendByName(spec.Suspend)
		if err != nil {
			return nil, err
		}
		opts.Suspend = p
	}
	if spec.Tenants > 1 {
		opts.Tenants = spec.Tenants
	}
	switch spec.Kind {
	case harness.KindPPB:
		o := spec.PPBOptions
		o.FTL = opts
		return core.New(dev, o)
	case harness.KindGreedySpeed:
		return ftl.NewGreedySpeed(dev, opts, nil)
	default:
		return nil, fmt.Errorf("spec %q: kind %q not mirrored by the pipeline", spec.Name, spec.Kind)
	}
}

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kindPrefill spanKind = iota // harness prefill: every logical page written once
	kindReplay                  // harness.ReplayQueued
	kindCompose                 // trace.Compositor.Next
	kindNext                    // a workload generator's Next
	kindWrite                   // ftl.FTL.Write that ran no GC
	kindGCWrite                 // ftl.FTL.Write during which Stats.GCRuns advanced
	kindRead                    // ftl.FTL.Read
	numKinds
)

var kindNames = [numKinds]string{"prefill", "replay", "compose", "next", "write", "gcwrite", "read"}

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	start, end int64
	req        int32 // request being pulled or issued; -1 outside the replay
	parent     int32 // index of the enclosing span; -1 for roots
	kind       spanKind
}

// tracer keeps the spans of one traced simulation in memory.
type tracer struct {
	epoch  time.Time
	spans  []span
	parent int32 // span enclosing the calls made now
	pulled int32 // requests pulled from the top-level stream so far
	req    int32 // the request being issued: the last one pulled

	vbm     *vblock.Manager
	freeMin int // fewest free blocks seen before a request was pulled
}

// reset empties the tracer for a new simulation, keeping span capacity.
func (t *tracer) reset(vbm *vblock.Manager) {
	*t = tracer{epoch: time.Now(), spans: t.spans[:0], parent: -1, req: -1,
		vbm: vbm, freeMin: vbm.FreeBlocks()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span that encloses the spans recorded until close.
func (t *tracer) open(k spanKind, req int32) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), req: req, parent: t.parent, kind: k})
	t.parent = i
	return i
}

func (t *tracer) close(i int32) {
	t.spans[i].end = t.now()
	t.parent = t.spans[i].parent
}

// spanCost is the tracer's own cost per wrapped call, in nanoseconds:
// in falls inside the call's span, out in its parent's self time.
type spanCost struct{ in, out float64 }

// layerTimes sums span durations per kind, in total and as self time: a
// span's duration minus that of its child spans and minus the tracer's
// cost, which is taken from the span it falls in. overhead is the
// tracer's cost inside the replay, so that the self times of the kinds
// under it and overhead add up to the replay's total exactly.
func (t *tracer) layerTimes(cost [numKinds]spanCost) (total, self [numKinds]time.Duration, calls [numKinds]int, overhead time.Duration) {
	var children [numKinds]time.Duration
	var childCalls [numKinds][numKinds]int // by parent kind, then child kind
	for _, s := range t.spans {
		d := time.Duration(s.end - s.start)
		total[s.kind] += d
		calls[s.kind]++
		if s.parent >= 0 {
			p := t.spans[s.parent].kind
			children[p] += d
			childCalls[p][s.kind]++
		}
	}
	for k := range self {
		tracing := float64(calls[k]) * cost[k].in
		for c, n := range childCalls[k] {
			tracing += float64(n) * cost[c].out
		}
		self[k] = total[k] - children[k] - time.Duration(tracing)
	}
	overhead = total[kindReplay]
	for k := range self {
		if spanKind(k) != kindPrefill {
			overhead -= self[k]
		}
	}
	return total, self, calls, overhead
}

// calibrate measures the tracer's cost per call of each wrapper: it
// times wrapped calls that do nothing against the same calls made bare,
// and takes the median of a few rounds. The top-level stream's kind is
// top; every other stream kind costs what a plain traced stream does.
func calibrate(vbm *vblock.Manager, top spanKind) [numKinds]spanCost {
	const n, rounds = 1 << 15, 5
	t := &tracer{spans: make([]span, 0, n+1)}
	var nop trace.Stream = nopStream{}
	var nopF ftl.FTL = nopFTL{}
	var stream, topStream, write, read [rounds]spanCost
	for r := range rounds {
		stream[r] = t.measure(vbm, n, timeNext(nop, n), func() time.Duration {
			return timeNext(&tracedStream{inner: nop, t: t, kind: kindNext}, n)
		})
		topStream[r] = t.measure(vbm, n, timeNext(nop, n), func() time.Duration {
			return timeNext(&tracedStream{inner: nop, t: t, kind: top, top: true}, n)
		})
		wf := &tracedFTL{FTL: nopF, t: t, stats: &ftl.Stats{}}
		write[r] = t.measure(vbm, n, timeWrites(nopF, n), func() time.Duration { return timeWrites(wf, n) })
		read[r] = t.measure(vbm, n, timeReads(nopF, n), func() time.Duration { return timeReads(wf, n) })
	}
	var cost [numKinds]spanCost
	cost[kindNext], cost[kindCompose] = medianCost(stream[:]), medianCost(stream[:])
	cost[top] = medianCost(topStream[:])
	cost[kindWrite], cost[kindGCWrite] = medianCost(write[:]), medianCost(write[:])
	cost[kindRead] = medianCost(read[:])
	return cost
}

// measure runs wrapped, which makes n traced calls, under a root span and
// derives their cost from the time bare took for the same calls unwrapped.
func (t *tracer) measure(vbm *vblock.Manager, n int, bare time.Duration, wrapped func() time.Duration) spanCost {
	t.reset(vbm)
	root := t.open(kindReplay, -1)
	d := wrapped()
	t.close(root)
	var in int64
	for _, s := range t.spans[1:] {
		in += s.end - s.start
	}
	c := spanCost{in: float64(in) / float64(n)}
	c.out = float64(d-bare)/float64(n) - c.in
	return c
}

func medianCost(cs []spanCost) spanCost {
	in, out := make([]float64, len(cs)), make([]float64, len(cs))
	for i, c := range cs {
		in[i], out[i] = c.in, c.out
	}
	return spanCost{median(in), median(out)}
}

// nopStream and nopFTL do nothing, so that calls to them time the call
// and whatever wraps it.
type nopStream struct{}

func (nopStream) Next() (trace.Request, bool) { return trace.Request{}, true }

type nopFTL struct{ ftl.FTL }

func (nopFTL) Write(uint64, int) error   { return nil }
func (nopFTL) Read(uint64) (bool, error) { return true, nil }

// timeNext, timeWrites and timeReads time n calls through the interface.
// They are not inlined, so the calls cannot be devirtualised.
//
//go:noinline
func timeNext(s trace.Stream, n int) time.Duration {
	start := time.Now()
	for range n {
		s.Next()
	}
	return time.Since(start)
}

//go:noinline
func timeWrites(f ftl.FTL, n int) time.Duration {
	start := time.Now()
	for i := range n {
		f.Write(uint64(i), 4096)
	}
	return time.Since(start)
}

//go:noinline
func timeReads(f ftl.FTL, n int) time.Duration {
	start := time.Now()
	for i := range n {
		f.Read(uint64(i))
	}
	return time.Since(start)
}

// writeSpans dumps the spans to path: one text header line, then one
// little-endian record per span.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "perfbench spans v1 kinds=%v record=start_ns:i64,end_ns:i64,req:i32,parent:i32,kind:u32\n", kindNames)
	var rec [28]byte
	for _, s := range t.spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint32(rec[16:], uint32(s.req))
		binary.LittleEndian.PutUint32(rec[20:], uint32(s.parent))
		binary.LittleEndian.PutUint32(rec[24:], uint32(s.kind))
		w.Write(rec[:])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStream times every Next of a request stream. The top-level
// stream (the one ReplayQueued pulls) also numbers the requests and
// samples the free-block count before each pull.
type tracedStream struct {
	inner trace.Stream
	t     *tracer
	kind  spanKind
	top   bool
}

func (s *tracedStream) Next() (trace.Request, bool) {
	t := s.t
	if s.top {
		if n := t.vbm.FreeBlocks(); n < t.freeMin {
			t.freeMin = n
		}
	}
	i := t.open(s.kind, t.pulled)
	r, ok := s.inner.Next()
	t.close(i)
	if s.top && ok {
		t.req = t.pulled
		t.pulled++
	}
	return r, ok
}

// tracedFTL times every Write and Read of the wrapped strategy.
type tracedFTL struct {
	ftl.FTL
	t     *tracer
	stats *ftl.Stats
}

func (w *tracedFTL) Write(lpn uint64, reqSize int) error {
	runs := w.stats.GCRuns
	start := w.t.now()
	err := w.FTL.Write(lpn, reqSize)
	k := kindWrite
	if w.stats.GCRuns != runs {
		k = kindGCWrite
	}
	w.t.spans = append(w.t.spans, span{start: start, end: w.t.now(), req: w.t.req, parent: w.t.parent, kind: k})
	return err
}

func (w *tracedFTL) Read(lpn uint64) (bool, error) {
	start := w.t.now()
	mapped, err := w.FTL.Read(lpn)
	w.t.spans = append(w.t.spans, span{start: start, end: w.t.now(), req: w.t.req, parent: w.t.parent, kind: kindRead})
	return mapped, err
}

// SetTenant forwards the replay's tenant announcement: ReplayQueued finds
// it by type assertion, and without it tenant-partition dispatch would
// silently place every tenant's data as tenant 0's.
func (w *tracedFTL) SetTenant(t int) {
	if s, ok := w.FTL.(interface{ SetTenant(int) }); ok {
		s.SetTenant(t)
	}
}

// strategy is what every benchmarked FTL offers beyond ftl.FTL.
type strategy interface {
	ftl.FTL
	Manager() *vblock.Manager
	CheckMapping() error
}

// pipelineRun is one simulation built from public constructors: the
// same steps as harness.Run, with the layers reachable.
type pipelineRun struct {
	spec     harness.RunSpec
	f        strategy // the strategy itself, never the tracing wrapper
	rm       *harness.ReplayMetrics
	base     nand.DeviceStats // device counters after prefill
	suspends uint64           // device suspensions after prefill
	requests int
	res      harness.Result
}

// runPipeline simulates w at scale s, recording every call into the
// workload, trace and ftl layers in tr.
func runPipeline(w benchWorkload, s harness.Scale, tr *tracer) (*pipelineRun, error) {
	spec := w.spec(s)
	dev, err := nand.NewDevice(spec.Device)
	if err != nil {
		return nil, err
	}
	built, err := buildFTL(spec, dev)
	if err != nil {
		return nil, err
	}
	f, ok := built.(strategy)
	if !ok {
		return nil, fmt.Errorf("%s: strategy %s offers no consistency checks", spec.Name, built.Name())
	}
	p := &pipelineRun{spec: spec, f: f}
	logicalBytes := f.LogicalPages() * uint64(spec.Device.PageSize)

	var src trace.Stream
	if spec.Tenants > 1 {
		// Rebuild the tenant mix so that the generators behind the
		// compositor can be traced too.
		src = trace.NewCompositor(tenantChildren(s, spec.Tenants, logicalBytes, func(g trace.Stream) trace.Stream {
			return &tracedStream{inner: g, t: tr, kind: kindNext}
		})...)
	} else {
		gen := spec.Workload(logicalBytes)
		if gen.LogicalBytes() > logicalBytes {
			return nil, fmt.Errorf("%s: workload needs %d bytes, logical space is %d", spec.Name, gen.LogicalBytes(), logicalBytes)
		}
		src = gen
	}
	tr.reset(f.Manager())
	src = &tracedStream{inner: src, t: tr, kind: topKind(spec), top: true}
	host := &tracedFTL{FTL: f, t: tr, stats: f.Stats()}

	if spec.Prefill {
		sp := tr.open(kindPrefill, -1)
		// As harness.Run: every logical page once, as bulk cold data.
		for lpn := uint64(0); lpn < f.LogicalPages(); lpn++ {
			if err := f.Write(lpn, 1<<20); err != nil {
				return nil, fmt.Errorf("%s: prefill: %w", spec.Name, err)
			}
		}
		tr.close(sp)
		*f.Stats() = ftl.Stats{}
		dev.ResetClocks()
	}
	p.base = *dev.Stats()
	p.suspends = dev.Suspends()
	p.rm = harness.NewReplayMetrics()
	if spec.Tenants > 1 {
		p.rm.EnableTenants(spec.Tenants)
	}
	opts := harness.ReplayOptions{QueueDepth: spec.QueueDepth, OpenLoop: spec.OpenLoop, Tenants: spec.Tenants}
	sp := tr.open(kindReplay, -1)
	err = harness.ReplayQueued(host, src, p.rm, opts)
	tr.close(sp)
	p.requests = int(tr.pulled)
	if err != nil {
		return p, fmt.Errorf("%s: %w", spec.Name, err)
	}
	p.res = p.collect()
	return p, nil
}

// topKind is the kind of the stream ReplayQueued pulls from: the
// compositor for a tenant mix, else the workload generator.
func topKind(spec harness.RunSpec) spanKind {
	if spec.Tenants > 1 {
		return kindCompose
	}
	return kindNext
}

// spanHint bounds the spans a traced run of the simulation r came from
// records: one per FTL page call, and one per replay event for the
// streams, since every request is an issue and a completion event and
// pulls at most a compositor and a generator. A run that records more
// only grows the slice.
func spanHint(r harness.Result) int {
	return int(r.HostReadPages+r.UnmappedReads+r.HostWritePage+r.ReplayEvents) + 64
}

// collect derives the run's harness.Result from public accessors, field
// for field as harness.Run does for the knobs buildFTL accepts.
func (p *pipelineRun) collect() harness.Result {
	f, rm := p.f, p.rm
	st, dev := f.Stats(), f.Device()
	ds := dev.Stats()
	res := harness.Result{
		Name:          p.spec.Name,
		Kind:          p.spec.Kind,
		ReadTotal:     st.ReadTotal(),
		WriteTotal:    st.WriteTotal(),
		HostReadPages: st.HostReads.Value(),
		HostWritePage: st.HostWrites.Value(),
		UnmappedReads: st.UnmappedReads.Value(),
		Erases:        dev.TotalErases() - p.base.Erases.Value(),
		GCCopies:      st.GCCopies.Value(),
		WAF:           st.WAF(),
		ReadP50:       rm.ReadLatency.Quantile(0.50),
		ReadP95:       rm.ReadLatency.Quantile(0.95),
		ReadP99:       rm.ReadLatency.Quantile(0.99),
		WriteP50:      rm.WriteLatency.Quantile(0.50),
		WriteP95:      rm.WriteLatency.Quantile(0.95),
		WriteP99:      rm.WriteLatency.Quantile(0.99),
		QueueDelayP50: rm.QueueDelay.Quantile(0.50),
		QueueDelayP95: rm.QueueDelay.Quantile(0.95),
		QueueDelayP99: rm.QueueDelay.Quantile(0.99),
		Makespan:      dev.Makespan(),
		Suspends:      dev.Suspends() - p.suspends,
		DeviceOps: ds.Reads.Value() + ds.Programs.Value() + ds.Erases.Value() -
			(p.base.Reads.Value() + p.base.Programs.Value() + p.base.Erases.Value()),
		ReplayEvents: rm.Events,
		ReplayWall:   rm.Wall,
	}
	if s := res.Makespan.Seconds(); s > 0 {
		res.SimOpsPerSec = float64(res.DeviceOps) / s
	}
	if s := rm.Wall.Seconds(); s > 0 {
		res.WallEventsPerSec = float64(rm.Events) / s
	}
	if n := rm.TenantCount(); n > 0 {
		res.TenantCount = n
		for t := 0; t < n; t++ {
			res.Tenants[t] = rm.TenantResult(t)
		}
	}
	if reads := st.FastReads.Value() + st.SlowReads.Value(); reads > 0 {
		res.FastReadShare = float64(st.FastReads.Value()) / float64(reads)
	}
	if ppb, ok := f.(*core.PPB); ok {
		ps := ppb.PPBStats()
		res.Migrations = ps.Migrations.Value()
		res.Diversions = ps.Diversions.Value()
		res.Demotions = ps.Demotions.Value()
	}
	return res
}

// check runs the consistency checks the simulator offers on the run's
// final state.
func (p *pipelineRun) check() error {
	if err := p.f.CheckMapping(); err != nil {
		return err
	}
	if err := p.f.Manager().CheckInvariants(); err != nil {
		return err
	}
	if err := p.f.Device().CheckAccounting(); err != nil {
		return err
	}
	if ppb, ok := p.f.(*core.PPB); ok {
		return ppb.CheckAreaPurity()
	}
	return nil
}
