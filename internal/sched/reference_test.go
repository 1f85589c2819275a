package sched

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"flowsyn/internal/assay"
	"flowsyn/internal/seqgraph"
)

// copyingPortTimeline is the reference port timeline: the Grant that scans
// and books in one loop, and the peekPair that grants both windows on a copy
// of the timeline.
type copyingPortTimeline struct {
	windows [][2]int
}

func (l *copyingPortTimeline) grant(t, length int) int {
	if length <= 0 {
		return t
	}
	for {
		conflict := false
		for _, w := range l.windows {
			if t < w[1] && w[0] < t+length {
				conflict = true
				if w[1] > t {
					t = w[1]
				}
			}
		}
		if !conflict {
			l.windows = append(l.windows, [2]int{t, t + length})
			return t
		}
	}
}

func (l *copyingPortTimeline) peekPair(t, length, fetchFloor int) (gs, gf int) {
	scratch := copyingPortTimeline{windows: append([][2]int(nil), l.windows...)}
	gs = scratch.grant(t, length)
	gf = scratch.grant(max(gs+length, fetchFloor), length)
	return gs, gf
}

// TestPortGrantsMatchCopyingReference drives PortTimeline and the copying
// reference through the same random bookings and peeks: seeded windows
// installed verbatim (as a recovery pin does, so they may overlap), then a
// mix of grants and store/fetch peeks with random lengths (zero included)
// and fetch floors before and after the store grant.
func TestPortGrantsMatchCopyingReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	peeks := 0
	for trial := 0; trial < 400; trial++ {
		var got PortTimeline
		var ref copyingPortTimeline
		for range r.Intn(4) {
			w := [2]int{r.Intn(200), 0}
			w[1] = w[0] + 1 + r.Intn(30)
			got.windows = append(got.windows, w)
			ref.windows = append(ref.windows, w)
		}
		for step := 0; step < 40; step++ {
			at, length := r.Intn(300), r.Intn(25)
			if r.Intn(2) == 0 {
				floor := at + r.Intn(60) - 20
				gs, gf := got.peekPair(at, length, floor)
				rs, rf := ref.peekPair(at, length, floor)
				if gs != rs || gf != rf {
					t.Fatalf("trial %d step %d: peekPair(%d, %d, %d) = %d, %d; reference %d, %d (windows %v)",
						trial, step, at, length, floor, gs, gf, rs, rf, ref.windows)
				}
				peeks++
				continue
			}
			if g, w := got.Grant(at, length), ref.grant(at, length); g != w {
				t.Fatalf("trial %d step %d: Grant(%d, %d) = %d, reference %d", trial, step, at, length, g, w)
			}
			if !reflect.DeepEqual(got.windows, ref.windows) {
				t.Fatalf("trial %d step %d: booked %v, reference %v", trial, step, got.windows, ref.windows)
			}
		}
	}
	if peeks == 0 {
		t.Fatal("no peeks compared")
	}
}

// TestPickReadyMatchesSortOrder checks the one-pass ready pick against the
// first element of the sort.Slice order it replaced, in both modes, on
// random ready lists with many ties in freshness and priority.
func TestPickReadyMatchesSortOrder(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(30)
		fresh := make([]int, n)
		prio := make([]int, n)
		for i := range n {
			fresh[i] = r.Intn(4) - 1
			prio[i] = r.Intn(5)
		}
		ready := make([]seqgraph.OpID, 0, n)
		for _, i := range r.Perm(n)[:1+r.Intn(n)] {
			ready = append(ready, seqgraph.OpID(i))
		}
		for _, mode := range []Mode{TimeAndStorage, TimeOnly} {
			want := sortedReady(ready, fresh, prio, mode)[0]
			if got := ready[pickReady(ready, fresh, prio, mode)]; got != want {
				t.Fatalf("trial %d %v: picked %d, sort order starts with %d (ready %v)", trial, mode, got, want, ready)
			}
		}
	}
}

// sortedReady is the reference ready order: a copy of ready sorted with the
// comparator the list scheduler used before its one-pass pick.
func sortedReady(ready []seqgraph.OpID, fresh, prio []int, mode Mode) []seqgraph.OpID {
	out := append([]seqgraph.OpID(nil), ready...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if mode == TimeAndStorage {
			if fresh[a] != fresh[b] {
				return fresh[a] > fresh[b]
			}
		}
		if prio[a] != prio[b] {
			return prio[a] > prio[b]
		}
		return a < b
	})
	return out
}

// referenceListSchedule is the list scheduler's loop as it was before the
// one-pass pick: it re-sorts the ready list at every step with a comparator
// that recomputes freshness on every comparison.
func referenceListSchedule(g *seqgraph.Graph, opts ListOptions) *Schedule {
	order, _ := g.TopoOrder()
	prio := make([]int, g.NumOps())
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0
		for _, c := range g.Children(id) {
			if v := prio[c] + opts.Transport; v > best {
				best = v
			}
		}
		prio[id] = best + g.Op(id).Duration
	}
	pinnedCount := 0
	if opts.Pin != nil {
		pinnedCount = len(opts.Pin.Assignments)
	}
	pl := newPlacer(g, opts.Devices, opts.Transport, opts.Pin, opts.Storage)
	s := pl.s
	remainingParents := make([]int, g.NumOps())
	for _, e := range g.Edges() {
		if !pl.done[e.Parent] {
			remainingParents[e.Child]++
		}
	}
	var ready []seqgraph.OpID
	for id, done := range pl.done {
		if !done && remainingParents[id] == 0 {
			ready = append(ready, seqgraph.OpID(id))
		}
	}
	freshness := func(op seqgraph.OpID) int {
		f := -1
		for _, p := range g.Parents(op) {
			if e := s.Assignments[p].End; e > f {
				f = e
			}
		}
		return f
	}
	for scheduled := pinnedCount; scheduled < g.NumOps(); scheduled++ {
		sort.Slice(ready, func(i, j int) bool {
			a, b := ready[i], ready[j]
			if opts.Mode == TimeAndStorage {
				if fa, fb := freshness(a), freshness(b); fa != fb {
					return fa > fb
				}
			}
			if prio[a] != prio[b] {
				return prio[a] > prio[b]
			}
			return a < b
		})
		op := ready[0]
		ready = ready[1:]
		bestDev, bestScore := -1, 0
		for k := 0; k < opts.Devices; k++ {
			if opts.Pin != nil && opts.Pin.Forbidden[k] {
				continue
			}
			est, fe := pl.place(op, k, false)
			score := est
			if opts.Mode == TimeAndStorage {
				score = est + fe*opts.Transport
			}
			if bestDev == -1 || score < bestScore {
				bestDev, bestScore = k, score
			}
		}
		pl.commit(op, bestDev)
		for _, c := range g.Children(op) {
			remainingParents[c]--
			if remainingParents[c] == 0 {
				ready = append(ready, c)
			}
		}
	}
	return pl.finish()
}

// prefixPin freezes the operations of prior that start before cut, with the
// departure slots and unit windows of the edges into them, failing device
// failed (-1 for none) — the pin a recovery builds.
func prefixPin(prior *Schedule, cut, failed int) *Pin {
	pin := &Pin{Time: cut}
	pinned := make([]bool, len(prior.Assignments))
	for _, a := range prior.Assignments {
		if a.Start < cut {
			pin.Assignments = append(pin.Assignments, a)
			pinned[a.Op] = true
		}
	}
	for e, off := range prior.DepartOffsets {
		if pinned[e.Child] {
			if pin.DepartOffsets == nil {
				pin.DepartOffsets = make(map[seqgraph.Edge]int)
			}
			pin.DepartOffsets[e] = off
		}
	}
	for e, w := range prior.UnitWindows {
		if pinned[e.Child] {
			if pin.UnitWindows == nil {
				pin.UnitWindows = make(map[seqgraph.Edge]UnitWindow)
			}
			pin.UnitWindows[e] = w
		}
	}
	if failed >= 0 {
		pin.Forbidden = map[int]bool{failed: true}
	}
	return pin
}

// TestListScheduleMatchesSortReference runs the list scheduler and the
// re-sorting reference loop on random assays in both modes, under the
// distributed, dedicated and hybrid storage models, cold and under a pin cut
// from the cold schedule: every schedule must be identical, windows, offsets
// and unit grants included.
func TestListScheduleMatchesSortReference(t *testing.T) {
	models := []StorageModel{nil, dedicatedModel(),
		testModel{name: "hybrid", serialized: true, slots: 2, evict: "lru"},
		testModel{name: "hybrid", serialized: true, slots: 1, evict: "earliest-next-fetch"}}
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	compared, pinned := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, n := range []int{8, 25, 60} {
			g := assay.Random(n, 2+int(seed)%3, seed)
			for _, mode := range []Mode{TimeAndStorage, TimeOnly} {
				for mi, m := range models {
					opts := ListOptions{Devices: 2 + int(seed)%3, Transport: 3 + int(seed)%8, Mode: mode, Storage: m}
					name := fmt.Sprintf("n%d seed%d %v model%d", n, seed, mode, mi)
					cold := compareListSchedule(t, name, g, opts)
					compared++
					cut := cold.Makespan * int(1+seed%3) / 4
					opts.Pin = prefixPin(cold, cut, int(seed)%opts.Devices)
					if err := opts.Pin.Validate(g, opts.Devices); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					compareListSchedule(t, name+" pinned", g, opts)
					compared++
					pinned++
				}
			}
		}
	}
	t.Logf("%d schedules compared, %d under a pin", compared, pinned)
}

func compareListSchedule(t *testing.T, name string, g *seqgraph.Graph, opts ListOptions) *Schedule {
	t.Helper()
	got, err := ListScheduleContext(context.Background(), g, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := referenceListSchedule(g, opts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: list schedule differs from the sort reference\ngot  %s\nwant %s", name, got.Gantt(), want.Gantt())
	}
	return got
}
