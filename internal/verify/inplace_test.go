package verify

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flowsyn/internal/arch"
	"flowsyn/internal/assay"
	"flowsyn/internal/sched"
	"flowsyn/internal/sim"
	"flowsyn/internal/storage"
)

// refAccounting is the reference accounting: claims flattened into a map of
// every claimed segment, evaluated per instant into a fresh map of every
// listed built segment.
type refAccounting struct {
	edges             []arch.EdgeID
	windows           map[arch.EdgeID][]roleWindow
	caches, unitCache []roleWindow
	horizon           int
}

func newRefAccounting(a *arch.Result) *refAccounting {
	ac := &refAccounting{edges: a.UsedEdges, windows: make(map[arch.EdgeID][]roleWindow)}
	add := func(e arch.EdgeID, w roleWindow) {
		if w.start < w.end {
			ac.windows[e] = append(ac.windows[e], w)
			ac.horizon = max(ac.horizon, w.end)
		}
	}
	for _, route := range a.Routes {
		t := route.Task
		if t.Kind == sched.Direct {
			for _, e := range route.OutEdges {
				add(e, roleWindow{t.Depart, t.Arrive, RoleTransporting})
			}
			continue
		}
		if t.Unit {
			for _, e := range route.OutEdges {
				add(e, roleWindow{t.OutStart, t.OutEnd, RoleTransporting})
			}
			for _, e := range route.FetchEdges {
				add(e, roleWindow{t.FetchStart, t.FetchEnd, RoleTransporting})
			}
			if t.OutEnd < t.FetchStart {
				ac.unitCache = append(ac.unitCache, roleWindow{t.OutEnd, t.FetchStart, RoleCaching})
			}
			continue
		}
		for _, e := range route.OutEdges {
			add(e, roleWindow{t.OutStart, t.OutEnd, RoleTransporting})
		}
		add(route.StorageEdge, roleWindow{t.OutStart, t.OutEnd, RoleTransporting})
		add(route.StorageEdge, roleWindow{t.OutEnd, t.FetchStart, RoleCaching})
		if t.OutEnd < t.FetchStart {
			ac.caches = append(ac.caches, roleWindow{t.OutEnd, t.FetchStart, RoleCaching})
		}
		add(route.StorageEdge, roleWindow{t.FetchStart, t.FetchEnd, RoleTransporting})
		for _, e := range route.FetchEdges {
			add(e, roleWindow{t.FetchStart, t.FetchEnd, RoleTransporting})
		}
	}
	return ac
}

func (ac *refAccounting) at(t int) (map[arch.EdgeID]SegmentRole, int) {
	states := make(map[arch.EdgeID]SegmentRole, len(ac.edges))
	for _, e := range ac.edges {
		role := RoleIdle
		for _, w := range ac.windows[e] {
			if t >= w.start && t < w.end {
				role = w.role
			}
		}
		states[e] = role
	}
	cached := 0
	for _, w := range ac.caches {
		if t >= w.start && t < w.end {
			cached++
		}
	}
	return states, cached
}

// randomChips synthesizes random assays under the three storage strategies,
// with and without boundary I/O, and returns each schedule with its chip.
func randomChips(t *testing.T, seeds int) (scheds []*sched.Schedule, chips []*arch.Result) {
	t.Helper()
	grid, err := arch.NewGrid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 1; seed <= seeds; seed++ {
		for _, policy := range []storage.Policy{storage.Distributed, storage.Dedicated, storage.Hybrid} {
			s, err := sched.ListSchedule(assay.Random(8+4*seed, 3, int64(seed)), sched.ListOptions{
				Devices: 3, Transport: 10, Storage: storage.New(storage.Config{Policy: policy}),
			})
			if err != nil {
				t.Fatal(err)
			}
			a, err := arch.Synthesize(s, grid, arch.Options{ModelIO: seed%2 == 0})
			if err != nil {
				continue // not every random assay routes on a 5x5 grid
			}
			scheds, chips = append(scheds, s), append(chips, a)
		}
	}
	if len(chips) == 0 {
		t.Fatal("no random assay routed")
	}
	return scheds, chips
}

// corrupt returns a copy of a with random damage: used segments dropped,
// repeated or listed off the grid, route segments re-pointed (off the grid
// too, or onto a segment while another fluid caches there), task kinds and
// unit flags flipped, windows shifted.
func corrupt(a *arch.Result, r *rand.Rand) *arch.Result {
	m := *a
	m.UsedEdges = slices.Clone(a.UsedEdges)
	m.Routes = slices.Clone(a.Routes)
	anyEdge := func() arch.EdgeID { return arch.EdgeID(r.Intn(a.Grid.NumEdges()+2) - 1) }
	for range 1 + r.Intn(4) {
		route := &m.Routes[r.Intn(len(m.Routes))]
		switch r.Intn(9) {
		case 0:
			if len(m.UsedEdges) > 0 {
				i := r.Intn(len(m.UsedEdges))
				m.UsedEdges = slices.Delete(m.UsedEdges, i, i+1)
			}
		case 1:
			m.UsedEdges = append(m.UsedEdges, anyEdge())
		case 2:
			route.StorageEdge = anyEdge()
		case 3:
			if len(route.OutEdges) > 0 {
				route.OutEdges = slices.Clone(route.OutEdges)
				route.OutEdges[r.Intn(len(route.OutEdges))] = anyEdge()
			}
		case 4:
			route.Task.Kind = sched.TaskKind(r.Intn(2))
		case 5:
			route.Task.Unit = !route.Task.Unit
		case 6:
			route.Task.OutEnd += r.Intn(41) - 20
		case 7:
			route.Task.FetchStart += r.Intn(41) - 20
		case 8:
			clashWithCache(m.Routes)
		}
	}
	return &m
}

// clashWithCache re-points the first segment of a direct transport onto the
// storage segment of a fluid cached during the transport, so one built
// segment carries overlapping claims with different roles.
func clashWithCache(routes []arch.Route) {
	for j := range routes {
		cj := routes[j].Task
		if cj.Kind != sched.Stored || cj.Unit || routes[j].StorageEdge < 0 {
			continue
		}
		for i := range routes {
			ti := routes[i].Task
			if i != j && ti.Kind == sched.Direct && len(routes[i].OutEdges) > 0 &&
				ti.Depart < cj.FetchStart && cj.OutEnd < ti.Arrive {
				routes[i].OutEdges = slices.Clone(routes[i].OutEdges)
				routes[i].OutEdges[0] = routes[j].StorageEdge
				return
			}
		}
	}
}

// TestInPlaceEvaluationMatchesAccountingReference checks the checker's
// in-place segment roles, cached count, unit count and horizon against the
// reference map-building accounting at every instant, on random chips and
// on corrupted copies of them.
func TestInPlaceEvaluationMatchesAccountingReference(t *testing.T) {
	seeds, corruptions := 4, 12
	if testing.Short() {
		seeds, corruptions = 2, 6
	}
	_, chips := randomChips(t, seeds)
	r := rand.New(rand.NewSource(4))
	instants := 0
	for ci, a := range chips {
		cases := []*arch.Result{a}
		for range corruptions {
			cases = append(cases, corrupt(a, r))
		}
		for k, m := range cases {
			ac, ref := NewAccounting(m), newRefAccounting(m)
			if ac.horizon != ref.horizon {
				t.Fatalf("chip %d case %d: horizon %d, reference %d", ci, k, ac.horizon, ref.horizon)
			}
			for tm := -1; tm <= ref.horizon+1; tm++ {
				states, cached := ref.at(tm)
				if len(ac.edges) != len(states) {
					t.Fatalf("chip %d case %d t=%d: %d built segments, reference %d", ci, k, tm, len(ac.edges), len(states))
				}
				for i, e := range ac.edges {
					if got := ac.roleAt(i, tm); got != states[e] {
						t.Fatalf("chip %d case %d t=%d: segment %d is %v, reference %v", ci, k, tm, e, got, states[e])
					}
				}
				if got := ac.cachedAt(tm); got != cached {
					t.Fatalf("chip %d case %d t=%d: %d cached, reference %d", ci, k, tm, got, cached)
				}
				if got, _ := ac.At(tm); !maps.Equal(got, states) {
					t.Fatalf("chip %d case %d t=%d: At gives %v, reference %v", ci, k, tm, got, states)
				}
				instants++
			}
		}
	}
	t.Logf("%d chips, %d instants compared", len(chips), instants)
}

// TestCompareAtReportsInUsedEdgesOrder makes several built segments of a
// real chip disagree with the simulator at one instant — roles flipped, one
// segment missing — and requires the report to name them in UsedEdges order,
// byte-identically on every call.
func TestCompareAtReportsInUsedEdgesOrder(t *testing.T) {
	scheds, chips := randomChips(t, 2)
	s, a := scheds[0], chips[0]
	if len(a.UsedEdges) < 4 {
		t.Fatalf("chip keeps only %d segments", len(a.UsedEdges))
	}
	ac := NewAccounting(a)
	tm := a.Routes[0].Task.Depart
	if a.Routes[0].Task.Kind == sched.Stored {
		tm = a.Routes[0].Task.OutStart
	}
	snap := sim.New(a, s).At(tm)
	// Damage segments from the back of UsedEdges forward, so the report's
	// order cannot come from the order of damage.
	for _, e := range []arch.EdgeID{a.UsedEdges[len(a.UsedEdges)-1], a.UsedEdges[2], a.UsedEdges[0]} {
		snap.Segment[e] = sim.Caching
		if snap.Segment[e].String() == ac.roleAt(slices.Index(ac.edges, e), tm).String() {
			snap.Segment[e] = sim.Idle
		}
	}
	delete(snap.Segment, a.UsedEdges[1])
	var first string
	for call := 0; call < 20; call++ {
		r := &Report{}
		r.compareAt(tm, snap, ac)
		var b strings.Builder
		for _, v := range r.Violations {
			b.WriteString(v.Error())
			b.WriteString("\n")
		}
		if call == 0 {
			first = b.String()
			continue
		}
		if b.String() != first {
			t.Fatalf("call %d reports\n%s\ncall 0 reported\n%s", call, b.String(), first)
		}
	}
	var order []string
	for _, line := range strings.Split(strings.TrimSpace(first), "\n") {
		if i := strings.Index(line, "segment "); i >= 0 && !strings.Contains(line, "tracks") {
			order = append(order, strings.Fields(line[i:])[1])
		}
	}
	want := []string{fmt.Sprint(a.UsedEdges[0]), fmt.Sprint(a.UsedEdges[1]), fmt.Sprint(a.UsedEdges[2]),
		fmt.Sprint(a.UsedEdges[len(a.UsedEdges)-1])}
	if !slices.Equal(order, want) {
		t.Fatalf("segments reported in order %v, want UsedEdges order %v:\n%s", order, want, first)
	}
}
