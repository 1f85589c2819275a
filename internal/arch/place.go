package arch

import (
	"fmt"
	"sort"

	"flowsyn/internal/sched"
)

// PlacementStrategy selects how devices are assigned to grid nodes.
type PlacementStrategy int

const (
	// CommWeighted places heavily-communicating devices near each other
	// while keeping one free ring of switches around each device for
	// routing; this is the default.
	CommWeighted PlacementStrategy = iota
	// RowMajor naively fills alternate grid nodes left-to-right; kept as an
	// ablation baseline.
	RowMajor
)

// String names the strategy.
func (p PlacementStrategy) String() string {
	if p == RowMajor {
		return "row-major"
	}
	return "comm-weighted"
}

// commMatrix counts transportation tasks between each device pair.
func commMatrix(devices int, tasks []sched.Task) [][]int {
	w := make([][]int, devices)
	for i := range w {
		w[i] = make([]int, devices)
	}
	for _, t := range tasks {
		if t.From == t.To {
			continue
		}
		w[t.From][t.To]++
		w[t.To][t.From]++
	}
	return w
}

// candidateNodes returns device sites in preference order. Sites on the
// even checkerboard parity come first: any two such nodes are at Manhattan
// distance >= 2, so every device keeps a full ring of switches around it —
// the spread layout visible in the paper's Fig. 11 (five devices around an
// interior switch mesh). Within a parity class, central nodes come first.
func candidateNodes(g Grid) []NodeID {
	nodes := make([]NodeID, 0, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		nodes = append(nodes, NodeID(n))
	}
	centerR, centerC := (g.Rows-1)*10/2, (g.Cols-1)*10/2 // ×10 to stay integral
	parity := func(n NodeID) int {
		r, c := g.Coords(n)
		return (r + c) % 2
	}
	score := func(n NodeID) int {
		r, c := g.Coords(n)
		return abs(r*10-centerR) + abs(c*10-centerC)
	}
	sort.Slice(nodes, func(i, j int) bool {
		pi, pj := parity(nodes[i]), parity(nodes[j])
		if pi != pj {
			return pi < pj
		}
		si, sj := score(nodes[i]), score(nodes[j])
		if si != sj {
			return si < sj
		}
		return nodes[i] < nodes[j]
	})
	return nodes
}

// PlaceUnit chooses a grid node for the dedicated storage unit given the
// already-placed devices (and ports). Every store and fetch travels between a
// device and the unit, so the unit takes the free node minimizing its total
// Manhattan distance to the devices — with the same adjacency and corner
// penalties as device placement, since a unit glued onto a device port would
// monopolize one of the device's few access channels. Deterministic: ties
// break by the candidate order (central, switch-parity-first).
func PlaceUnit(g Grid, placed []NodeID) (NodeID, error) {
	taken := make(map[NodeID]bool, len(placed))
	for _, p := range placed {
		taken[p] = true
	}
	const adjacencyPenalty = 100000
	const cornerPenalty = 50000
	best, bestCost := NodeID(-1), 1<<30
	for _, site := range candidateNodes(g) {
		if taken[site] {
			continue
		}
		c := 0
		if g.degree(site) < 3 {
			c += cornerPenalty
		}
		for _, p := range placed {
			d := g.Manhattan(site, p)
			c += d
			if d == 1 {
				c += adjacencyPenalty
			}
		}
		if c < bestCost {
			best, bestCost = site, c
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("arch: no free node left for the storage unit on %s grid", g)
	}
	return best, nil
}

// PlacePorts chooses grid nodes for the chip's input and output ports given
// the already-placed devices. Ports sit on the boundary (fluids enter and
// leave the chip there) on non-corner nodes (corners have only two incident
// channels), as far from each other as possible: the input port on the left
// half, the output port on the right.
func PlacePorts(g Grid, devices []NodeID) (in, out NodeID, err error) {
	taken := make(map[NodeID]bool, len(devices))
	for _, d := range devices {
		taken[d] = true
	}
	collect := func(avoidDeviceNeighbours bool) []NodeID {
		var out []NodeID
		for n := 0; n < g.NumNodes(); n++ {
			node := NodeID(n)
			r, c := g.Coords(node)
			onBoundary := r == 0 || r == g.Rows-1 || c == 0 || c == g.Cols-1
			corner := (r == 0 || r == g.Rows-1) && (c == 0 || c == g.Cols-1)
			if !onBoundary || corner || taken[node] {
				continue
			}
			if avoidDeviceNeighbours {
				// A port next to a device would monopolize one of the
				// device's few access channels.
				blocked := false
				var nbuf [4]NodeID
				for _, nb := range g.Neighbors(node, nbuf[:0]) {
					if taken[nb] {
						blocked = true
						break
					}
				}
				if blocked {
					continue
				}
			}
			out = append(out, node)
		}
		return out
	}
	boundary := collect(true)
	if len(boundary) < 2 {
		boundary = collect(false)
	}
	if len(boundary) < 2 {
		return -1, -1, fmt.Errorf("arch: no free boundary nodes left for I/O ports on %s grid", g)
	}
	// Score: input prefers small column (left), centered row; output prefers
	// large column (right).
	best := func(wantLeft bool, exclude NodeID) NodeID {
		bestNode, bestScore := NodeID(-1), 1<<30
		for _, n := range boundary {
			if n == exclude {
				continue
			}
			r, c := g.Coords(n)
			colScore := c
			if !wantLeft {
				colScore = g.Cols - 1 - c
			}
			rowScore := abs(2*r - (g.Rows - 1)) // centered rows first
			score := colScore*16 + rowScore
			if score < bestScore {
				bestNode, bestScore = n, score
			}
		}
		return bestNode
	}
	in = best(true, -1)
	out = best(false, in)
	return in, out, nil
}

// Place assigns each device to a distinct grid node.
//
// CommWeighted places devices in order of total communication weight; each
// device takes the candidate node minimizing the weighted Manhattan distance
// to already-placed partners, with a spacing penalty for adjacent devices
// (adjacent devices leave no switch between them for storage segments).
// A pairwise-swap improvement pass follows. The result is deterministic.
func Place(g Grid, devices int, tasks []sched.Task, strategy PlacementStrategy) ([]NodeID, error) {
	if devices < 1 {
		return nil, fmt.Errorf("arch: need at least one device, got %d", devices)
	}
	if devices > g.NumNodes()/2 {
		return nil, fmt.Errorf("arch: %d devices do not fit on a %s grid with routing room", devices, g)
	}

	if strategy == RowMajor {
		pos := make([]NodeID, devices)
		idx := 0
		for n := 0; n < g.NumNodes() && idx < devices; n += 2 {
			pos[idx] = NodeID(n)
			idx++
		}
		if idx < devices {
			return nil, fmt.Errorf("arch: row-major placement ran out of nodes for %d devices", devices)
		}
		return pos, nil
	}

	w := commMatrix(devices, tasks)
	totals := make([]int, devices)
	for i := range w {
		for j := range w[i] {
			totals[i] += w[i][j]
		}
	}
	order := make([]int, devices)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if totals[order[a]] != totals[order[b]] {
			return totals[order[a]] > totals[order[b]]
		}
		return order[a] < order[b]
	})

	candidates := candidateNodes(g)
	pos := make([]NodeID, devices)
	taken := make(map[NodeID]bool, devices)
	for i := range pos {
		pos[i] = -1
	}

	// Adjacent devices leave no switch between them, walling ports off from
	// the routing mesh, so adjacency carries a prohibitive penalty rather
	// than a mild one. Corner sites have only two incident channels — too
	// few for a device's concurrent in/out traffic — and are discouraged
	// almost as strongly.
	const adjacencyPenalty = 100000
	const cornerPenalty = 50000
	cost := func(dev int, site NodeID) int {
		c := 0
		if g.degree(site) < 3 {
			c += cornerPenalty
		}
		for other, p := range pos {
			if p < 0 || other == dev {
				continue
			}
			d := g.Manhattan(site, p)
			c += w[dev][other] * d
			if d == 1 {
				c += adjacencyPenalty
			}
			if d == 0 {
				c += 1 << 20
			}
		}
		return c
	}

	for _, dev := range order {
		best, bestCost := NodeID(-1), 1<<30
		for _, site := range candidates {
			if taken[site] {
				continue
			}
			if c := cost(dev, site); c < bestCost {
				best, bestCost = site, c
			}
		}
		pos[dev] = best
		taken[best] = true
	}

	// Pairwise swap improvement.
	total := func() int {
		t := 0
		for i := 0; i < devices; i++ {
			for j := i + 1; j < devices; j++ {
				d := g.Manhattan(pos[i], pos[j])
				t += w[i][j] * d
				if d == 1 {
					t += adjacencyPenalty
				}
			}
		}
		return t
	}
	for improved := true; improved; {
		improved = false
		base := total()
		for i := 0; i < devices && !improved; i++ {
			for j := i + 1; j < devices && !improved; j++ {
				pos[i], pos[j] = pos[j], pos[i]
				if total() < base {
					improved = true
				} else {
					pos[i], pos[j] = pos[j], pos[i]
				}
			}
		}
	}
	return pos, nil
}
