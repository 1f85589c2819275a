package arch

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// shortestTreeRef is the reference Dijkstra: fresh distance and predecessor
// arrays and a fresh heap per call, neighbours from Grid.Neighbors and the
// joining segment from Grid.EdgeBetween.
func shortestTreeRef(r *router, src NodeID, w interval, allowDevice NodeID, banEdge EdgeID) (dist []int, predEdge []EdgeID, predNode []NodeID) {
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

// walkBackRef is the reference path reconstruction: append while walking to
// the root, then reverse in place.
func walkBackRef(dst NodeID, predEdge []EdgeID, predNode []NodeID) (nodes []NodeID, edges []EdgeID) {
	for n := dst; n != -1; n = predNode[n] {
		nodes = append(nodes, n)
		if predEdge[n] != -1 {
			edges = append(edges, predEdge[n])
		}
	}
	slices.Reverse(nodes)
	slices.Reverse(edges)
	return nodes, edges
}

// TestShortestTreeMatchesReference runs the router's reused-buffer Dijkstra
// and the fresh-array reference from random sources over random grids with
// random devices, reservations, used segments, faulted segments and banned
// edges, whole trees and searches stopped at a target. Both trees are kept
// live across queries (as routeStored does), so a query that leaks state
// from an earlier one into its tree shows up.
func TestShortestTreeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	queries, reached := 0, 0
	for trial := 0; trial < 150; trial++ {
		grid := Grid{Rows: 2 + rng.Intn(6), Cols: 2 + rng.Intn(6)}
		var devices []NodeID
		for _, n := range rng.Perm(grid.NumNodes())[:1+rng.Intn(min(5, grid.NumNodes()))] {
			devices = append(devices, NodeID(n))
		}
		unit := NodeID(-1)
		if rng.Intn(3) == 0 {
			for n := 0; n < grid.NumNodes(); n++ {
				if !slices.Contains(devices, NodeID(n)) {
					unit = NodeID(n)
					break
				}
			}
		}
		var forbidden []EdgeID
		for range rng.Intn(3) {
			forbidden = append(forbidden, EdgeID(rng.Intn(grid.NumEdges())))
		}
		r := newRouter(grid, devices, unit, Options{ReuseCost: 10, NewCost: 30, ForbiddenEdges: forbidden})
		for id := range rng.Intn(12) {
			start := rng.Intn(60)
			w := interval{start, start + 1 + rng.Intn(20)}
			r.occ.reserveEdge(id, EdgeID(rng.Intn(grid.NumEdges())), w)
			if n := NodeID(rng.Intn(grid.NumNodes())); !r.isDevice[n] {
				r.occ.reserveNode(id, n, w)
			}
		}
		for range rng.Intn(grid.NumEdges()) {
			r.used[rng.Intn(grid.NumEdges())] = true
		}
		for q := 0; q < 20; q++ {
			src := NodeID(rng.Intn(grid.NumNodes()))
			allow := NodeID(-1)
			if rng.Intn(2) == 0 {
				allow = devices[rng.Intn(len(devices))]
			}
			ban := EdgeID(-1)
			if rng.Intn(2) == 0 {
				ban = EdgeID(rng.Intn(grid.NumEdges()))
			}
			start := rng.Intn(70)
			w := interval{start, start + 1 + rng.Intn(15)}
			tr := &r.trees[q%2]
			r.shortestTree(tr, src, w, allow, ban, -1)
			dist, pe, pn := shortestTreeRef(r, src, w, allow, ban)
			if !slices.Equal(tr.dist, dist) || !slices.Equal(tr.predEdge, pe) || !slices.Equal(tr.predNode, pn) {
				t.Fatalf("trial %d query %d (%s grid, src %d, window %v, allow %d, ban %d): tree differs from the reference\ndist %v\nref  %v",
					trial, q, grid, src, w, allow, ban, tr.dist, dist)
			}
			for n := range grid.NumNodes() {
				if dist[n] >= unreachable {
					continue
				}
				reached++
				nodes, edges := walkBack(NodeID(n), tr)
				rn, re := walkBackRef(NodeID(n), pe, pn)
				if !slices.Equal(nodes, rn) || !slices.Equal(edges, re) {
					t.Fatalf("trial %d query %d: path to %d is %v %v, reference %v %v", trial, q, n, nodes, edges, rn, re)
				}
			}
			// A search stopped at a target settles the target exactly as
			// the full tree does, along the same path.
			target := NodeID(rng.Intn(grid.NumNodes()))
			r.shortestTree(tr, src, w, allow, ban, target)
			if tr.dist[target] != dist[target] {
				t.Fatalf("trial %d query %d: target %d at distance %d, full tree %d", trial, q, target, tr.dist[target], dist[target])
			}
			if dist[target] < unreachable {
				nodes, edges := walkBack(target, tr)
				rn, re := walkBackRef(target, pe, pn)
				if !slices.Equal(nodes, rn) || !slices.Equal(edges, re) {
					t.Fatalf("trial %d query %d: path to target %d is %v %v, full tree %v %v", trial, q, target, nodes, edges, rn, re)
				}
			}
			queries++
		}
	}
	if reached <= queries {
		t.Fatalf("%d queries reached only %d nodes; the trees are trivial", queries, reached)
	}
}

// TestLinksMatchGridAdjacency pins the neighbour table to Grid.Neighbors
// order and Grid.EdgeBetween.
func TestLinksMatchGridAdjacency(t *testing.T) {
	for _, g := range []Grid{{2, 2}, {3, 5}, {7, 7}} {
		links := g.links()
		var buf [4]NodeID
		for v := range g.NumNodes() {
			nbs := g.Neighbors(NodeID(v), buf[:0])
			if len(links[v]) != len(nbs) {
				t.Fatalf("%s node %d: %d links, %d neighbours", g, v, len(links[v]), len(nbs))
			}
			for i, nb := range nbs {
				if l := links[v][i]; l.node != nb || l.edge != g.EdgeBetween(NodeID(v), nb) {
					t.Fatalf("%s node %d link %d = %+v, want node %d edge %d", g, v, i, l, nb, g.EdgeBetween(NodeID(v), nb))
				}
			}
		}
	}
}

// TestCandidateSelectionMatchesSortOrder checks that selecting candidates
// one at a time yields them in the order the sort.Slice the router used
// before put them in, on random lists with many cost ties.
func TestCandidateSelectionMatchesSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		var cands []storageCandidate
		for e := range rng.Intn(60) {
			u, v := NodeID(rng.Intn(40)), NodeID(rng.Intn(40))
			for _, uv := range [][2]NodeID{{u, v}, {v, u}} {
				if u != v && rng.Intn(3) > 0 {
					cands = append(cands, storageCandidate{cost: 10 * rng.Intn(6), edge: EdgeID(e), u: uv[0], v: uv[1]})
				}
			}
		}
		want := slices.Clone(cands)
		sort.Slice(want, func(i, j int) bool {
			if want[i].cost != want[j].cost {
				return want[i].cost < want[j].cost
			}
			if want[i].edge != want[j].edge {
				return want[i].edge < want[j].edge
			}
			return want[i].u < want[j].u
		})
		got := make([]storageCandidate, 0, len(cands))
		for k := range cands {
			got = append(got, selectCandidate(cands, k))
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: selection order %v, sort order %v", trial, got, want)
		}
	}
}
