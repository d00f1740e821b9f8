package sched

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// numKinds is the number of event kinds the replay multiplexes.
const numKinds = 3

// TestQueueOrdersByTime pins the basic heap contract: events pop in
// non-decreasing Time regardless of push order.
func TestQueueOrdersByTime(t *testing.T) {
	var q Queue
	times := []time.Duration{50, 10, 40, 10, 30, 0, 20, 50, 10}
	for _, d := range times {
		q.Push(Event{Time: d, Kind: KindCompletion})
	}
	if q.Len() != len(times) {
		t.Fatalf("Len() = %d, want %d", q.Len(), len(times))
	}
	prev := time.Duration(-1)
	for q.Len() > 0 {
		e := q.Pop()
		if e.Time < prev {
			t.Fatalf("popped %v after %v: times not non-decreasing", e.Time, prev)
		}
		prev = e.Time
	}
}

// TestQueueFIFOAmongEqualTimes pins the tie-break: events pushed at the
// same timestamp pop in exactly their push order. The replay relies on
// this for determinism — equal-time completions must free queue slots
// in a fixed order at any host parallelism.
func TestQueueFIFOAmongEqualTimes(t *testing.T) {
	var q Queue
	const n = 100
	for i := 0; i < n; i++ {
		q.Push(Event{Time: 7, Kind: Kind(i % numKinds)})
	}
	for i := 0; i < n; i++ {
		e := q.Pop()
		if e.seq != uint64(i) || e.Kind != Kind(i%numKinds) {
			t.Fatalf("equal-time pop %d = {seq %d, %v}, want {seq %d, %v}",
				i, e.seq, e.Kind, i, Kind(i%numKinds))
		}
	}
}

// TestQueueInterleavedPushPop pins FIFO across interleaving: events
// pushed at an equal time after some pops still sort behind earlier
// pushes at that time.
func TestQueueInterleavedPushPop(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 5, Kind: KindArrival})
	q.Push(Event{Time: 5, Kind: KindIssue})
	if e := q.Pop(); e.Kind != KindArrival {
		t.Fatalf("first pop = %v, want %v", e.Kind, KindArrival)
	}
	q.Push(Event{Time: 5, Kind: KindCompletion})
	q.Push(Event{Time: 3, Kind: KindArrival})
	want := []Event{{Time: 3, Kind: KindArrival}, {Time: 5, Kind: KindIssue}, {Time: 5, Kind: KindCompletion}}
	for i, w := range want {
		if e := q.Pop(); e.Time != w.Time || e.Kind != w.Kind {
			t.Fatalf("pop %d = {t=%v %v}, want {t=%v %v}", i, e.Time, e.Kind, w.Time, w.Kind)
		}
	}
}

// checkAgainstStableSort pushes events into a fresh queue and checks the
// pop sequence against a stable sort of the pushed events by Time —
// exactly the "non-decreasing Time, FIFO among equal" contract, checked
// on a reference implementation. The reference carries each event's push
// index in seq, so the comparison also witnesses push order among
// equal-time events of the same kind.
func checkAgainstStableSort(t *testing.T, events []Event) {
	t.Helper()
	var q Queue
	for i := range events {
		q.Push(events[i])
		events[i].seq = uint64(i)
	}
	if q.Len() != len(events) {
		t.Fatalf("Len() = %d after %d pushes", q.Len(), len(events))
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	for i, want := range events {
		if got := q.Pop(); got != want {
			t.Fatalf("pop %d = {t=%v %v seq %d}, want {t=%v %v seq %d}",
				i, got.Time, got.Kind, got.seq, want.Time, want.Kind, want.seq)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("%d events left after popping all", q.Len())
	}
}

// TestQueueMatchesStableSort is the property test: against randomized
// push sequences, the popped (Time, Kind) sequence must equal the
// stable-sorted reference.
func TestQueueMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		spread := 1 + rng.Intn(20) // small spread forces many ties
		events := make([]Event, n)
		for i := range events {
			events[i] = Event{Time: time.Duration(rng.Intn(spread)), Kind: Kind(rng.Intn(numKinds))}
		}
		checkAgainstStableSort(t, events)
	}
}

// FuzzEventHeap feeds arbitrary byte strings to the heap as push
// sequences — each byte one event, its time b/numKinds and its kind
// b%numKinds — and checks the popped sequence against the stable-sorted
// reference, the two invariants every replay depends on: pop times
// never decrease, and among equal times the push order is preserved.
func FuzzEventHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{5, 1, 5, 1, 5})
	f.Add([]byte{255, 0, 128, 0, 255, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		events := make([]Event, len(data))
		for i, b := range data {
			events[i] = Event{Time: time.Duration(b / numKinds), Kind: Kind(b % numKinds)}
		}
		checkAgainstStableSort(t, events)
	})
}
