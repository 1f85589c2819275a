// Package arch implements architectural synthesis with distributed channel
// storage — Section 3.2 of "Transport or Store?" (DAC 2017).
//
// Devices and switches are placed on a connection grid; every transportation
// task from the schedule (internal/sched) is realized as a path of channel
// segments connected by switches, with time multiplexing: two paths may share
// a segment or a switch only if their live windows do not overlap. Stored
// tasks additionally claim one channel segment as distributed storage for the
// fluid's caching window (the segment's two end switches stay usable by other
// paths, exactly as the paper's constraint (10) excepts them).
//
// Two engines are provided: a deterministic placement + time-windowed router
// that minimizes the number of used channel segments (the practical engine
// for all benchmarks), and an exact ILP mode implementing the paper's
// constraints (8)–(12) for small instances (used in tests and ablations).
package arch

import "fmt"

// NodeID identifies a grid node (row-major: r*Cols + c).
type NodeID int

// EdgeID identifies a grid edge (channel segment). Horizontal edges come
// first in row-major order, then vertical edges.
type EdgeID int

// Grid is a rectangular connection grid: Rows×Cols nodes, edges between
// 4-neighbours. Every node can host a device or act as a switch; every edge
// is a channel segment able to transport or cache one fluid sample.
type Grid struct {
	Rows, Cols int
}

// NewGrid returns a grid with the given dimensions (both must be >= 2 so
// that at least one edge exists in each direction).
func NewGrid(rows, cols int) (Grid, error) {
	if rows < 2 || cols < 2 {
		return Grid{}, fmt.Errorf("arch: grid must be at least 2x2, got %dx%d", rows, cols)
	}
	return Grid{Rows: rows, Cols: cols}, nil
}

// NumNodes returns the node count.
func (g Grid) NumNodes() int { return g.Rows * g.Cols }

// NumEdges returns the channel-segment count.
func (g Grid) NumEdges() int { return g.Rows*(g.Cols-1) + (g.Rows-1)*g.Cols }

// numHorizontal is the count of horizontal edges.
func (g Grid) numHorizontal() int { return g.Rows * (g.Cols - 1) }

// Node returns the NodeID at (row, col).
func (g Grid) Node(row, col int) NodeID { return NodeID(row*g.Cols + col) }

// Coords returns the (row, col) of a node.
func (g Grid) Coords(n NodeID) (row, col int) { return int(n) / g.Cols, int(n) % g.Cols }

// InBounds reports whether (row, col) is a valid node position.
func (g Grid) InBounds(row, col int) bool {
	return row >= 0 && row < g.Rows && col >= 0 && col < g.Cols
}

// hasNode reports whether n is a node of the grid.
func (g Grid) hasNode(n NodeID) bool { return n >= 0 && int(n) < g.NumNodes() }

// hasEdge reports whether e is a channel segment of the grid.
func (g Grid) hasEdge(e EdgeID) bool { return e >= 0 && int(e) < g.NumEdges() }

// HorizontalEdge returns the edge between (row,col) and (row,col+1).
func (g Grid) HorizontalEdge(row, col int) EdgeID {
	return EdgeID(row*(g.Cols-1) + col)
}

// VerticalEdge returns the edge between (row,col) and (row+1,col).
func (g Grid) VerticalEdge(row, col int) EdgeID {
	return EdgeID(g.numHorizontal() + row*g.Cols + col)
}

// Endpoints returns the two nodes joined by e, smaller NodeID first.
func (g Grid) Endpoints(e EdgeID) (NodeID, NodeID) {
	if int(e) < g.numHorizontal() {
		row := int(e) / (g.Cols - 1)
		col := int(e) % (g.Cols - 1)
		return g.Node(row, col), g.Node(row, col+1)
	}
	v := int(e) - g.numHorizontal()
	row := v / g.Cols
	col := v % g.Cols
	return g.Node(row, col), g.Node(row+1, col)
}

// EdgeBetween returns the edge joining two adjacent nodes, or -1 if the
// nodes are not 4-neighbours.
func (g Grid) EdgeBetween(a, b NodeID) EdgeID {
	ra, ca := g.Coords(a)
	rb, cb := g.Coords(b)
	switch {
	case ra == rb && cb == ca+1:
		return g.HorizontalEdge(ra, ca)
	case ra == rb && ca == cb+1:
		return g.HorizontalEdge(ra, cb)
	case ca == cb && rb == ra+1:
		return g.VerticalEdge(ra, ca)
	case ca == cb && ra == rb+1:
		return g.VerticalEdge(rb, ca)
	default:
		return -1
	}
}

// Neighbors appends to buf the nodes adjacent to n and returns the slice.
func (g Grid) Neighbors(n NodeID, buf []NodeID) []NodeID {
	r, c := g.Coords(n)
	if g.InBounds(r-1, c) {
		buf = append(buf, g.Node(r-1, c))
	}
	if g.InBounds(r+1, c) {
		buf = append(buf, g.Node(r+1, c))
	}
	if g.InBounds(r, c-1) {
		buf = append(buf, g.Node(r, c-1))
	}
	if g.InBounds(r, c+1) {
		buf = append(buf, g.Node(r, c+1))
	}
	return buf
}

// degree returns the number of nodes adjacent to n.
func (g Grid) degree(n NodeID) int {
	var buf [4]NodeID
	return len(g.Neighbors(n, buf[:0]))
}

// link is one neighbour of a grid node and the segment joining them.
type link struct {
	node NodeID
	edge EdgeID
}

// links returns, per node, its neighbours in Neighbors order, each with the
// joining segment.
func (g Grid) links() [][]link {
	n := g.NumNodes()
	out := make([][]link, n)
	buf := make([]link, 0, 4*n)
	var nbuf [4]NodeID
	for v := range n {
		start := len(buf)
		for _, nb := range g.Neighbors(NodeID(v), nbuf[:0]) {
			buf = append(buf, link{node: nb, edge: g.EdgeBetween(NodeID(v), nb)})
		}
		out[v] = buf[start:len(buf):len(buf)]
	}
	return out
}

// IncidentEdges appends to buf the edges incident to n and returns the slice.
func (g Grid) IncidentEdges(n NodeID, buf []EdgeID) []EdgeID {
	r, c := g.Coords(n)
	if c > 0 {
		buf = append(buf, g.HorizontalEdge(r, c-1))
	}
	if c < g.Cols-1 {
		buf = append(buf, g.HorizontalEdge(r, c))
	}
	if r > 0 {
		buf = append(buf, g.VerticalEdge(r-1, c))
	}
	if r < g.Rows-1 {
		buf = append(buf, g.VerticalEdge(r, c))
	}
	return buf
}

// Manhattan returns the grid distance between two nodes.
func (g Grid) Manhattan(a, b NodeID) int {
	ra, ca := g.Coords(a)
	rb, cb := g.Coords(b)
	return abs(ra-rb) + abs(ca-cb)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// String renders the grid size as in the paper's Table 2 column G.
func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.Rows, g.Cols) }
