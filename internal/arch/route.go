package arch

import (
	"fmt"
	"sort"

	"flowsyn/internal/sched"
)

// Route is the physical realization of one transportation task.
type Route struct {
	// Task is the scheduled transportation requirement this route serves.
	Task sched.Task
	// OutNodes/OutEdges form the (only) path for Direct tasks, or the
	// sub-path p_{r,1} from the source device into the storage segment for
	// Stored tasks. Nodes and edges alternate: len(nodes) = len(edges)+1.
	OutNodes []NodeID
	OutEdges []EdgeID
	// StorageEdge is the caching channel segment (p_{r,2}); -1 for Direct.
	StorageEdge EdgeID
	// FetchNodes/FetchEdges form the sub-path p_{r,3} from the storage
	// segment to the destination device (empty for Direct tasks).
	FetchNodes []NodeID
	FetchEdges []EdgeID
}

// Edges returns every channel segment the route touches.
func (r Route) Edges() []EdgeID {
	out := append([]EdgeID(nil), r.OutEdges...)
	if r.StorageEdge >= 0 {
		out = append(out, r.StorageEdge)
	}
	out = append(out, r.FetchEdges...)
	return out
}

// onGrid reports whether every node and segment of the route lies on g, and
// a channel-stored route names its storage segment.
func (r Route) onGrid(g Grid) bool {
	if r.Task.Kind == sched.Stored && !r.Task.Unit && r.StorageEdge < 0 {
		return false
	}
	for _, nodes := range [][]NodeID{r.OutNodes, r.FetchNodes} {
		for _, n := range nodes {
			if !g.hasNode(n) {
				return false
			}
		}
	}
	for _, e := range r.Edges() {
		if !g.hasEdge(e) {
			return false
		}
	}
	return true
}

// interval is a half-open time window [Start, End).
type interval struct {
	Start, End int
}

func overlaps(a, b interval) bool { return a.Start < b.End && b.Start < a.End }

// tagged is a reservation attributed to a route, so rip-up can release it.
type tagged struct {
	w     interval
	route int
}

// occupancy tracks time-windowed reservations of grid resources: the
// time-multiplexing model of the paper's constraint (10). Edges are reserved
// by transports and by cached fluids; switch nodes are reserved by
// transports only (a cached segment's end switches stay usable by other
// paths, the paper's exception to (10)). Device nodes are never reserved:
// a device exposes several interface valves (the paper's Fig. 1(b) mixer
// has six), so two fluids may use different ports of one device
// concurrently — they are still forced onto distinct channel segments by
// edge exclusivity. The reservation lists are indexed by EdgeID and NodeID.
type occupancy struct {
	edges [][]tagged
	nodes [][]tagged
}

func newOccupancy(g Grid) *occupancy {
	return &occupancy{
		edges: make([][]tagged, g.NumEdges()),
		nodes: make([][]tagged, g.NumNodes()),
	}
}

func (o *occupancy) edgeFree(e EdgeID, w interval) bool {
	for _, r := range o.edges[e] {
		if overlaps(r.w, w) {
			return false
		}
	}
	return true
}

func (o *occupancy) nodeFree(n NodeID, w interval) bool {
	for _, r := range o.nodes[n] {
		if overlaps(r.w, w) {
			return false
		}
	}
	return true
}

func (o *occupancy) reserveEdge(id int, e EdgeID, w interval) {
	if w.Start < w.End {
		o.edges[e] = append(o.edges[e], tagged{w, id})
	}
}

func (o *occupancy) reserveNode(id int, n NodeID, w interval) {
	if w.Start < w.End {
		o.nodes[n] = append(o.nodes[n], tagged{w, id})
	}
}

// release removes every reservation held by the given route.
func (o *occupancy) release(id int) {
	for e, list := range o.edges {
		o.edges[e] = dropRoute(list, id)
	}
	for n, list := range o.nodes {
		o.nodes[n] = dropRoute(list, id)
	}
}

func dropRoute(list []tagged, id int) []tagged {
	out := list[:0]
	for _, t := range list {
		if t.route != id {
			out = append(out, t)
		}
	}
	return out
}

// router performs time-windowed shortest-path queries over the grid. Its
// per-resource state is held in slices indexed by NodeID or EdgeID.
type router struct {
	grid     Grid
	occ      *occupancy
	isDevice []bool
	// unit is the dedicated storage unit's node (-1 without one). It is
	// device-like: registered in isDevice, so paths terminate at it but never
	// pass through, and unit tasks route their store and fetch legs to/from it.
	unit NodeID
	used []bool // edges already used at least once
	// reuseCost/newCost price an edge traversal; newCost > reuseCost makes
	// the router prefer already-used segments, minimizing the paper's
	// objective (12) greedily.
	reuseCost, newCost int
	// bannedStorage excludes one segment from storage selection (-1 for
	// none); set while re-homing a ripped-up cache. (Transient — overwritten
	// per rehome, which is why the fault masks below are separate fields.)
	bannedStorage EdgeID
	// forbidden excludes failed segments from all new routing and storage;
	// noCache excludes degraded segments from storage candidacy only. Both
	// come from injected faults and hold for the whole synthesis.
	forbidden []bool
	noCache   []bool
	// pinned marks route ids installed verbatim from a pre-fault execution:
	// rip-up may never evict them.
	pinned map[int]bool
}

// newRouter returns a router with no reservations over grid, whose device
// nodes are devices plus the storage unit (when unit >= 0), pricing edges and
// masking faulted segments as opts says.
func newRouter(grid Grid, devices []NodeID, unit NodeID, opts Options) *router {
	r := &router{
		grid:          grid,
		occ:           newOccupancy(grid),
		isDevice:      make([]bool, grid.NumNodes()),
		unit:          unit,
		used:          make([]bool, grid.NumEdges()),
		reuseCost:     opts.ReuseCost,
		newCost:       opts.NewCost,
		bannedStorage: -1,
		forbidden:     edgeMask(grid, opts.ForbiddenEdges),
		noCache:       edgeMask(grid, opts.ForbiddenStorage),
		pinned:        make(map[int]bool),
	}
	for _, p := range devices {
		r.isDevice[p] = true
	}
	if unit >= 0 {
		// Device-like: routes terminate at the unit, never pass through it,
		// and cached fluids cannot park on its access segments' node.
		r.isDevice[unit] = true
	}
	return r
}

// edgeMask marks the listed edges; IDs outside the grid name no segment.
func edgeMask(g Grid, edges []EdgeID) []bool {
	mask := make([]bool, g.NumEdges())
	for _, e := range edges {
		if g.hasEdge(e) {
			mask[e] = true
		}
	}
	return mask
}

// free reports whether switch node n is usable in window w; device nodes are
// always usable (multi-port devices, see the occupancy doc comment).
func (r *router) free(n NodeID, w interval) bool {
	if r.isDevice[n] {
		return true
	}
	return r.occ.nodeFree(n, w)
}

// reservePath reserves every edge and every switch node of a path for
// window w (device nodes stay shareable).
func (r *router) reservePath(id int, nodes []NodeID, edges []EdgeID, w interval) {
	for _, e := range edges {
		r.occ.reserveEdge(id, e, w)
	}
	for _, n := range nodes {
		if !r.isDevice[n] {
			r.occ.reserveNode(id, n, w)
		}
	}
}

// applyReservations installs all of route's reservations under the given id
// and marks its edges used. It mirrors exactly what the route* methods do on
// success, so a ripped-up route can be restored verbatim.
func (r *router) applyReservations(id int, route Route) {
	t := route.Task
	if t.Kind == sched.Direct {
		r.reservePath(id, route.OutNodes, route.OutEdges, interval{t.Depart, t.Arrive})
	} else if t.Unit {
		// The fluid waits in the unit, not on the grid: only the two transport
		// legs occupy channel resources.
		r.reservePath(id, route.OutNodes, route.OutEdges, interval{t.OutStart, t.OutEnd})
		r.reservePath(id, route.FetchNodes, route.FetchEdges, interval{t.FetchStart, t.FetchEnd})
	} else {
		outW := interval{t.OutStart, t.OutEnd}
		cacheW := interval{t.OutEnd, t.FetchStart}
		fetchW := interval{t.FetchStart, t.FetchEnd}
		r.reservePath(id, route.OutNodes, route.OutEdges, outW)
		r.occ.reserveEdge(id, route.StorageEdge, outW)
		r.occ.reserveEdge(id, route.StorageEdge, cacheW)
		r.occ.reserveEdge(id, route.StorageEdge, fetchW)
		r.reservePath(id, route.FetchNodes, route.FetchEdges, fetchW)
	}
	for _, e := range route.Edges() {
		r.used[e] = true
	}
}

// rebuildUsed recomputes the used-edge set from the committed routes.
func (r *router) rebuildUsed(routes []Route) {
	clear(r.used)
	for _, route := range routes {
		for _, e := range route.Edges() {
			r.used[e] = true
		}
	}
}

type pqItem struct {
	node NodeID
	dist int
}

// pq is Dijkstra's queue: a binary min-heap of labels ordered by distance,
// then node. Each pushed (dist, node) pair is unique (a node is pushed again
// only with a strictly smaller distance), so the pop order is fixed by that
// order alone.
type pq []pqItem

func (p pq) less(i, j int) bool {
	if p[i].dist != p[j].dist {
		return p[i].dist < p[j].dist
	}
	return p[i].node < p[j].node
}

func (p *pq) push(it pqItem) {
	*p = append(*p, it)
	h := *p
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (p *pq) pop() pqItem {
	h := *p
	n := len(h) - 1
	top := h[0]
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if k := j + 1; k < n && h.less(k, j) {
			j = k
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	*p = h
	return top
}

func (r *router) edgeCost(e EdgeID) int {
	if r.used[e] {
		return r.reuseCost
	}
	return r.newCost
}

const unreachable = 1 << 30

// shortestTree runs Dijkstra from src during window w, avoiding reserved
// resources and device nodes (except src itself and an optional allowed
// target device node). banEdge, if >= 0, is additionally avoided (used to
// keep a storage segment out of its own feeder paths). It returns dist and
// predecessor arrays.
func (r *router) shortestTree(src NodeID, w interval, allowDevice NodeID, banEdge EdgeID) (dist []int, predEdge []EdgeID, predNode []NodeID) {
	n := r.grid.NumNodes()
	dist = make([]int, n)
	predEdge = make([]EdgeID, n)
	predNode = make([]NodeID, n)
	for i := range dist {
		dist[i] = unreachable
		predEdge[i] = -1
		predNode[i] = -1
	}
	if !r.free(src, w) {
		return dist, predEdge, predNode
	}
	dist[src] = 0
	h := pq{{node: src, dist: 0}}
	var nbuf [4]NodeID
	for len(h) > 0 {
		it := h.pop()
		if it.dist > dist[it.node] {
			continue
		}
		for _, nb := range r.grid.Neighbors(it.node, nbuf[:0]) {
			if r.isDevice[nb] && nb != src && nb != allowDevice {
				continue
			}
			e := r.grid.EdgeBetween(it.node, nb)
			if e == banEdge || r.forbidden[e] || !r.occ.edgeFree(e, w) || !r.free(nb, w) {
				continue
			}
			nd := it.dist + r.edgeCost(e)
			if nd < dist[nb] {
				dist[nb] = nd
				predEdge[nb] = e
				predNode[nb] = it.node
				h.push(pqItem{node: nb, dist: nd})
			}
		}
	}
	return dist, predEdge, predNode
}

func reverseNodes(in []NodeID) []NodeID {
	out := make([]NodeID, len(in))
	for i, n := range in {
		out[len(in)-1-i] = n
	}
	return out
}

func reverseEdges(in []EdgeID) []EdgeID {
	out := make([]EdgeID, len(in))
	for i, e := range in {
		out[len(in)-1-i] = e
	}
	return out
}

// walkBack reconstructs the path src..dst from predecessor arrays.
func walkBack(dst NodeID, predEdge []EdgeID, predNode []NodeID) (nodes []NodeID, edges []EdgeID) {
	for n := dst; n != -1; n = predNode[n] {
		nodes = append(nodes, n)
		if predEdge[n] != -1 {
			edges = append(edges, predEdge[n])
		}
	}
	// Reverse to src..dst order.
	for i, j := 0, len(nodes)-1; i < j; i, j = i+1, j-1 {
		nodes[i], nodes[j] = nodes[j], nodes[i]
	}
	for i, j := 0, len(edges)-1; i < j; i, j = i+1, j-1 {
		edges[i], edges[j] = edges[j], edges[i]
	}
	return nodes, edges
}

// routeDirect finds and reserves a path for a Direct task under route id.
func (r *router) routeDirect(id int, t sched.Task, src, dst NodeID) (Route, error) {
	w := interval{t.Depart, t.Arrive}
	dist, pe, pn := r.shortestTree(src, w, dst, -1)
	if dist[dst] >= unreachable {
		return Route{}, fmt.Errorf("arch: no conflict-free path %v->%v during [%d,%d)", src, dst, w.Start, w.End)
	}
	nodes, edges := walkBack(dst, pe, pn)
	route := Route{Task: t, OutNodes: nodes, OutEdges: edges, StorageEdge: -1}
	r.applyReservations(id, route)
	return route, nil
}

// routeStored finds and reserves the three sub-paths of a Stored task under
// route id: the move-out path into a storage segment, the caching segment
// itself, and the fetch path to the destination device.
func (r *router) routeStored(id int, t sched.Task, src, dst NodeID) (Route, error) {
	outW := interval{t.OutStart, t.OutEnd}
	cacheW := interval{t.OutEnd, t.FetchStart}
	fetchW := interval{t.FetchStart, t.FetchEnd}
	spanW := interval{t.OutStart, t.FetchEnd}

	// Unconstrained trees estimate candidate costs; feasibility of each
	// candidate is then checked with the candidate edge banned from its own
	// feeder paths (the cheapest path to an endpoint often runs through the
	// candidate segment itself).
	distOut, _, _ := r.shortestTree(src, outW, -1, -1)
	distFetch, _, _ := r.shortestTree(dst, fetchW, -1, -1)

	// Device-incident segments may cache only for their own source or
	// target device, and even then reluctantly: a cached sample parked on a
	// device port would wall the device in for the whole storage lifetime
	// (the paper's Fig. 11 caches in the interior switch mesh).
	const devicePortPenalty = 1000
	type candidate struct {
		cost int
		edge EdgeID
		u, v NodeID
	}
	var cands []candidate
	for e := 0; e < r.grid.NumEdges(); e++ {
		eid := EdgeID(e)
		if eid == r.bannedStorage || r.forbidden[eid] || r.noCache[eid] {
			continue
		}
		if !r.occ.edgeFree(eid, spanW) {
			continue
		}
		u, v := r.grid.Endpoints(eid)
		penalty := 0
		if r.isDevice[u] || r.isDevice[v] {
			if !(u == src || v == src || u == dst || v == dst) {
				continue
			}
			penalty = devicePortPenalty
		}
		for flip := 0; flip < 2; flip++ {
			a, b := u, v
			if flip == 1 {
				a, b = v, u
			}
			if distOut[a] >= unreachable || distFetch[b] >= unreachable {
				continue
			}
			cands = append(cands, candidate{
				cost: distOut[a] + r.edgeCost(eid) + distFetch[b] + penalty,
				edge: eid, u: a, v: b,
			})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		if cands[i].edge != cands[j].edge {
			return cands[i].edge < cands[j].edge
		}
		return cands[i].u < cands[j].u
	})

	for _, c := range cands {
		dOut, peOut, pnOut := r.shortestTree(src, outW, -1, c.edge)
		if dOut[c.u] >= unreachable {
			continue
		}
		dFetch, peFetch, pnFetch := r.shortestTree(dst, fetchW, -1, c.edge)
		if dFetch[c.v] >= unreachable {
			continue
		}
		on, oe := walkBack(c.u, peOut, pnOut)
		fnRev, feRev := walkBack(c.v, peFetch, pnFetch)
		route := Route{
			Task:        t,
			OutNodes:    on,
			OutEdges:    oe,
			StorageEdge: c.edge,
			FetchNodes:  reverseNodes(fnRev),
			FetchEdges:  reverseEdges(feRev),
		}
		r.applyReservations(id, route)
		return route, nil
	}
	return Route{}, fmt.Errorf("arch: no storage segment available for task %v (cache [%d,%d))",
		t.Edge, cacheW.Start, cacheW.End)
}

// routeUnit finds and reserves the two transport legs of a unit-stored task:
// the store leg from the source device into the storage unit during
// [OutStart, OutEnd), and the fetch leg from the unit to the destination
// device during [FetchStart, FetchEnd). Between the two the fluid sits in a
// unit cell, claiming no grid resource.
func (r *router) routeUnit(id int, t sched.Task, src, dst NodeID) (Route, error) {
	if r.unit < 0 {
		return Route{}, fmt.Errorf("arch: unit task %v but no storage unit placed", t.Edge)
	}
	outW := interval{t.OutStart, t.OutEnd}
	fetchW := interval{t.FetchStart, t.FetchEnd}
	dOut, peOut, pnOut := r.shortestTree(src, outW, r.unit, -1)
	if dOut[r.unit] >= unreachable {
		return Route{}, fmt.Errorf("arch: no conflict-free store leg %v->unit %v during [%d,%d)",
			src, r.unit, outW.Start, outW.End)
	}
	on, oe := walkBack(r.unit, peOut, pnOut)
	dFetch, peFetch, pnFetch := r.shortestTree(r.unit, fetchW, dst, -1)
	if dFetch[dst] >= unreachable {
		return Route{}, fmt.Errorf("arch: no conflict-free fetch leg unit %v->%v during [%d,%d)",
			r.unit, dst, fetchW.Start, fetchW.End)
	}
	fn, fe := walkBack(dst, peFetch, pnFetch)
	route := Route{
		Task:        t,
		OutNodes:    on,
		OutEdges:    oe,
		StorageEdge: -1,
		FetchNodes:  fn,
		FetchEdges:  fe,
	}
	r.applyReservations(id, route)
	return route, nil
}

// routeTask dispatches on the task kind.
func (r *router) routeTask(id int, t sched.Task, src, dst NodeID) (Route, error) {
	if t.Kind == sched.Direct {
		return r.routeDirect(id, t, src, dst)
	}
	if t.Unit {
		return r.routeUnit(id, t, src, dst)
	}
	return r.routeStored(id, t, src, dst)
}

// span returns the full live window of a task.
func span(t sched.Task) interval {
	if t.Kind == sched.Direct {
		return interval{t.Depart, t.Arrive}
	}
	return interval{t.OutStart, t.FetchEnd}
}

// taskStart returns the first moment a task occupies the grid.
func taskStart(t sched.Task) int { return span(t).Start }

// maxEvictions bounds how many committed caches one routing retry may evict.
const maxEvictions = 4

// ripUpAndRetry handles a routing failure for task t (route id) by evicting
// previously-committed cached samples whose lifetimes overlap t's window —
// one at a time, up to maxEvictions — retrying t after each eviction, and
// finally re-homing every evicted cache on a different storage segment.
// routes[j] entries are updated in place on success; on failure every
// reservation and route is restored exactly. This mirrors classic rip-up-
// and-reroute.
func (r *router) ripUpAndRetry(id int, t sched.Task, src, dst NodeID, routes []Route) (Route, error) {
	tw := span(t)
	// Candidate victims: routes whose live window overlaps t's. Stored
	// routes come first, longest cache first (long caches are the usual
	// blockers); direct routes can also be evicted and re-routed along an
	// alternate path.
	type victim struct {
		idx   int
		cache int
	}
	var victims []victim
	for j, route := range routes {
		if r.pinned[j] {
			// Executed before the fault: history cannot be re-routed.
			continue
		}
		if overlaps(span(route.Task), tw) {
			victims = append(victims, victim{j, route.Task.CacheDuration()})
		}
	}
	sort.Slice(victims, func(a, b int) bool {
		sa, sb := routes[victims[a].idx].Task.Kind == sched.Stored,
			routes[victims[b].idx].Task.Kind == sched.Stored
		if sa != sb {
			return sa
		}
		if victims[a].cache != victims[b].cache {
			return victims[a].cache > victims[b].cache
		}
		return victims[a].idx < victims[b].idx
	})

	saved := make(map[int]Route)
	var evicted []int
	rebuild := func() {
		kept := make([]Route, 0, len(routes))
		for j, route := range routes {
			if _, gone := saved[j]; !gone {
				kept = append(kept, route)
			}
		}
		r.rebuildUsed(kept)
	}
	rollback := func(rehomed []int) {
		r.occ.release(id)
		for _, j := range rehomed {
			r.occ.release(j)
		}
		for j, old := range saved {
			r.occ.release(j) // in case it was re-homed
			routes[j] = old
			r.applyReservations(j, old)
		}
		r.rebuildUsed(routes)
	}

	// rehome re-routes a saved victim: caches move to a different storage
	// segment (their previous one is banned so they cannot land back in t's
	// way); direct transports take whatever conflict-free path remains.
	rehome := func(j int, old Route) (Route, error) {
		if old.Task.Unit {
			// The unit node is fixed; re-homing just finds alternate legs.
			vSrc := old.OutNodes[0]
			vDst := old.FetchNodes[len(old.FetchNodes)-1]
			return r.routeUnit(j, old.Task, vSrc, vDst)
		}
		if old.Task.Kind == sched.Stored {
			r.bannedStorage = old.StorageEdge
			vSrc, vDst := old.OutNodes[0], old.FetchNodes[len(old.FetchNodes)-1]
			rerouted, err := r.routeStored(j, old.Task, vSrc, vDst)
			r.bannedStorage = -1
			return rerouted, err
		}
		vSrc, vDst := old.OutNodes[0], old.OutNodes[len(old.OutNodes)-1]
		return r.routeDirect(j, old.Task, vSrc, vDst)
	}

	// Phase 1: single-victim attempts — evict one route, place t, re-home
	// the victim; fully undone if any step fails.
	var firstErr error
	for _, v := range victims {
		j := v.idx
		old := routes[j]
		saved[j] = old
		r.occ.release(j)
		rebuild()
		newRoute, err := r.routeTask(id, t, src, dst)
		if err == nil {
			rerouted, rhErr := rehome(j, old)
			if rhErr == nil {
				routes[j] = rerouted
				return newRoute, nil
			}
			r.occ.release(id)
			err = rhErr
		}
		if firstErr == nil {
			firstErr = err
		}
		delete(saved, j)
		r.applyReservations(j, old)
		r.rebuildUsed(routes)
	}

	// Phase 2: cumulative evictions — keep evicting the top victims until t
	// routes, then re-home them all; rolled back entirely on failure.
	var (
		newRoute Route
		routeErr error
		ok       bool
	)
	for k := 0; k < len(victims) && k < maxEvictions; k++ {
		j := victims[k].idx
		saved[j] = routes[j]
		evicted = append(evicted, j)
		r.occ.release(j)
		rebuild()
		newRoute, routeErr = r.routeTask(id, t, src, dst)
		if routeErr == nil {
			ok = true
			break
		}
	}
	if !ok {
		rollback(nil)
		if routeErr == nil {
			routeErr = firstErr
		}
		if routeErr == nil {
			routeErr = fmt.Errorf("arch: no overlapping route to evict")
		}
		return Route{}, fmt.Errorf("arch: routing failed even after rip-up: %w", routeErr)
	}
	var rehomed []int
	for _, j := range evicted {
		rerouted, err := rehome(j, saved[j])
		if err != nil {
			rollback(rehomed)
			return Route{}, fmt.Errorf("arch: rip-up could not re-home a route: %w", err)
		}
		routes[j] = rerouted
		rehomed = append(rehomed, j)
	}
	return newRoute, nil
}
