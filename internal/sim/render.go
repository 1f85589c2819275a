package sim

import (
	"fmt"
	"strings"

	"flowsyn/internal/arch"
)

// RenderASCII draws the chip state as ASCII art in the style of the paper's
// Fig. 11: devices as labelled boxes, switches as '+', channel segments as
// '-'/'|' when idle, '='/'!' while transporting and '#' while caching.
// Unused grid positions are blank.
func RenderASCII(res *arch.Result, snap *Snapshot) string {
	g := res.Grid
	// Canvas: each node occupies a 4-wide, 2-tall cell for legibility.
	const cw, ch = 6, 2
	w, h := (g.Cols-1)*cw+4, (g.Rows-1)*ch+1
	canvas := make([][]rune, h)
	for y := range canvas {
		canvas[y] = make([]rune, w)
		for x := range canvas[y] {
			canvas[y][x] = ' '
		}
	}
	put := func(x, y int, s string) {
		for i, r := range s {
			if x+i < w && y < h {
				canvas[y][x+i] = r
			}
		}
	}

	usedNode := make(map[arch.NodeID]bool)
	for _, e := range res.UsedEdges {
		u, v := g.Endpoints(e)
		usedNode[u] = true
		usedNode[v] = true
	}
	deviceAt := make(map[arch.NodeID]int)
	for d, p := range res.DevicePos {
		deviceAt[p] = d
		usedNode[p] = true
	}

	// Edges first, then nodes on top.
	for _, e := range res.UsedEdges {
		u, v := g.Endpoints(e)
		ru, cu := g.Coords(u)
		rv, cv := g.Coords(v)
		state := snap.Segment[e]
		if ru == rv { // horizontal
			y := ru * ch
			x0 := cu*cw + 2
			x1 := cv * cw
			ch := '-'
			switch state {
			case Transporting:
				ch = '='
			case Caching:
				ch = '#'
			}
			for x := x0; x <= x1+1; x++ {
				canvas[y][x] = ch
			}
		} else { // vertical
			x := cu * cw
			y0, y1 := ru*ch+1, rv*ch-1
			c := '|'
			switch state {
			case Transporting:
				c = '!'
			case Caching:
				c = '#'
			}
			for y := y0; y <= y1; y++ {
				if y < h {
					canvas[y][x] = c
				}
			}
		}
	}
	nDevices := len(res.DevicePos) - res.Ports
	for n := 0; n < g.NumNodes(); n++ {
		node := arch.NodeID(n)
		r, c := g.Coords(node)
		x, y := c*cw, r*ch
		if d, ok := deviceAt[node]; ok {
			switch {
			case d == nDevices && res.Ports > 0:
				put(x, y, "[IN]")
			case d == nDevices+1 && res.Ports > 0:
				put(x, y, "[OUT]")
			default:
				put(x, y, fmt.Sprintf("[d%d]", d+1))
			}
		} else if usedNode[node] {
			put(x, y, "+")
		} else {
			put(x, y, ".")
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", snap.Describe())
	for _, row := range canvas {
		line := strings.TrimRight(string(row), " ")
		b.WriteString(line)
		b.WriteByte('\n')
	}
	b.WriteString("legend: [dK] device  + switch  -| idle  =! transporting  # caching  x failed  ~ degraded  . unused\n")
	return b.String()
}

// RenderSVG draws the chip state as a standalone SVG document.
func RenderSVG(res *arch.Result, snap *Snapshot) string {
	g := res.Grid
	const cell = 60
	const margin = 40
	w := (g.Cols-1)*cell + 2*margin
	h := (g.Rows-1)*cell + 2*margin
	pos := func(n arch.NodeID) (int, int) {
		r, c := g.Coords(n)
		return margin + c*cell, margin + r*cell
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		w, h, w, h)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`, w, h)
	fmt.Fprintf(&b, `<text x="%d" y="20" font-size="14" font-family="monospace">t = %d s</text>`,
		margin, snap.Time)

	for _, e := range res.UsedEdges {
		u, v := g.Endpoints(e)
		x1, y1 := pos(u)
		x2, y2 := pos(v)
		color, width := "#999", 3
		switch snap.Segment[e] {
		case Transporting:
			color, width = "#1f77d0", 6
		case Caching:
			color, width = "#e07b1f", 6
		}
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="%s" stroke-width="%d"/>`,
			x1, y1, x2, y2, color, width)
	}

	usedNode := make(map[arch.NodeID]bool)
	for _, e := range res.UsedEdges {
		u, v := g.Endpoints(e)
		usedNode[u] = true
		usedNode[v] = true
	}
	deviceAt := make(map[arch.NodeID]int)
	for d, p := range res.DevicePos {
		deviceAt[p] = d
	}
	nDevices := len(res.DevicePos) - res.Ports
	for n := 0; n < g.NumNodes(); n++ {
		node := arch.NodeID(n)
		x, y := pos(node)
		if d, ok := deviceAt[node]; ok {
			label := fmt.Sprintf("d%d", d+1)
			fill := "#cfe8cf"
			if res.Ports > 0 && d >= nDevices {
				fill = "#e8e0cf"
				if d == nDevices {
					label = "IN"
				} else {
					label = "OUT"
				}
			}
			fmt.Fprintf(&b, `<rect x="%d" y="%d" width="36" height="36" fill="%s" stroke="black"/>`,
				x-18, y-18, fill)
			fmt.Fprintf(&b, `<text x="%d" y="%d" font-size="13" text-anchor="middle" font-family="monospace">%s</text>`,
				x, y+5, label)
		} else if usedNode[node] {
			fmt.Fprintf(&b, `<circle cx="%d" cy="%d" r="6" fill="white" stroke="black"/>`, x, y)
		}
	}
	b.WriteString(`</svg>`)
	return b.String()
}
