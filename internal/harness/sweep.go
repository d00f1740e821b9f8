package harness

import (
	"fmt"
	"strings"
)

// An experiment is a sweep: a fixed-order cartesian product of axes, run
// as one RunAll batch and folded into table rows. Adding an experiment
// means listing its axes and writing one row function; the engine keeps
// the spec list and the result walk in step.

// axis is one dimension of a sweep: the label of each point (joined into
// spec names) and the mutator applying point i to a spec. A fold axis
// spreads its points across the columns of one table row instead of
// giving each its own row; only trailing axes fold.
type axis struct {
	labels []string
	set    func(spec *RunSpec, i int)
	fold   bool
}

// over sweeps values in order, labelling each with format and applying
// it with set.
func over[T any](format string, values []T, set func(r *RunSpec, v T)) axis {
	a := axis{set: func(r *RunSpec, i int) { set(r, values[i]) }}
	for _, v := range values {
		a.labels = append(a.labels, fmt.Sprintf(format, v))
	}
	return a
}

// kinds sweeps the FTL strategy, labelled by kind name.
func kinds(ks ...FTLKind) axis {
	return over("%s", ks, func(r *RunSpec, k FTLKind) { r.Kind = k })
}

// folded returns the axis spreading across one row's columns.
func (a axis) folded() axis {
	a.fold = true
	return a
}

// pair is the conventional-vs-PPB axis closing most sweeps, folded so a
// row sees the conventional result first and the PPB result second.
var pair = kinds(KindConventional, KindPPB).folded()

// traceAxis sweeps the paper traces (paperTraces, in order).
func traceAxis(s Scale) axis {
	builders := []WorkloadBuilder{s.MediaWorkload(), s.WebSQLWorkload()}
	return axis{labels: paperTraces, set: func(r *RunSpec, i int) { r.Workload = builders[i] }}
}

// qdAxis sweeps the host queue depth, labelled "qd<depth>".
func qdAxis(depths []int) axis {
	return over("qd%d", depths, func(r *RunSpec, qd int) { r.QueueDepth = qd })
}

// dispatchAxis sweeps the chip-dispatch policy, labelled by name.
func dispatchAxis(policies []string) axis {
	return over("%s", policies, func(r *RunSpec, policy string) { r.Dispatch = policy })
}

// point is one row's group of consecutive sweep points: the labels and
// axis indices of its first point, and the results of every point.
type point struct {
	labels []string
	idx    []int
	res    []Result
}

// key joins the point's first n labels into a series-key prefix.
func (p point) key(n int) string {
	return strings.Join(p.labels[:n], "/")
}

// sweep is one experiment table: base spec, axes (last axis fastest),
// the spec-name prefix, and the row callback run once per group of
// consecutive points the fold axes span (one point without them). row
// records the group's series into the figure and returns its table
// row, or nil for none.
type sweep struct {
	prefix string
	base   RunSpec
	axes   []axis
	row    func(f *FigureResult, p point) []any
}

// run executes the sweep's whole product as one RunAll batch into f.
func (sw sweep) run(s Scale, f *FigureResult) error {
	n, per := 1, 1
	for _, a := range sw.axes {
		n *= len(a.labels)
		if a.fold {
			per *= len(a.labels)
		}
	}
	specs := make([]RunSpec, n)
	points := make([]point, n)
	for i := range specs {
		p := point{labels: make([]string, len(sw.axes)), idx: make([]int, len(sw.axes))}
		spec, rest, stride := sw.base, i, n
		for k, a := range sw.axes {
			stride /= len(a.labels)
			p.idx[k], rest = rest/stride, rest%stride
			p.labels[k] = a.labels[p.idx[k]]
			a.set(&spec, p.idx[k])
		}
		spec.Name = sw.prefix + "/" + p.key(len(p.labels))
		specs[i], points[i] = spec, p
	}
	results, err := RunAll(specs, s.Parallelism)
	if err != nil {
		return err
	}
	f.recordThroughput(specs, results)
	for i := 0; i < n; i += per {
		points[i].res = results[i : i+per]
		if cells := sw.row(f, points[i]); cells != nil {
			f.Table.AddRow(cells...)
		}
	}
	return nil
}

// runSweeps validates the scale, then runs each sweep into f in order.
func runSweeps(s Scale, f *FigureResult, sweeps ...sweep) (*FigureResult, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	for _, sw := range sweeps {
		if err := sw.run(s, f); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// sweepMetrics are the per-run numbers addMetrics records by name.
var sweepMetrics = map[string]func(Result) float64{
	"makespan":  func(r Result) float64 { return r.Makespan.Seconds() },
	"readp99":   func(r Result) float64 { return r.ReadP99.Seconds() },
	"writep99":  func(r Result) float64 { return r.WriteP99.Seconds() },
	"qdelayp99": func(r Result) float64 { return r.QueueDelayP99.Seconds() },
	"erases":    func(r Result) float64 { return float64(r.Erases) },
	"suspends":  func(r Result) float64 { return float64(r.Suspends) },
}

// addMetrics records each "metric/side" name as the series key/metric/side,
// reading res[1] for side "ppb" and res[0] otherwise (side "conv", or no
// side on a single-point group).
func (f *FigureResult) addMetrics(key string, res []Result, names ...string) {
	for _, name := range names {
		metric, side, _ := strings.Cut(name, "/")
		r := res[0]
		if side == "ppb" {
			r = res[1]
		}
		f.add(key+"/"+name, sweepMetrics[metric](r))
	}
}
