package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"flowsyn"
	"flowsyn/internal/assay"
	"flowsyn/internal/seqgraph"
)

// The benchmark draws its assays from two fixed corpora of candidates, one
// per size class. Candidate j of a class is a pure function of (class, j):
// its random assay, device count, grid, the fault a recovery request
// injects and the one-op edit a resynthesis request applies. A corpus file
// (corpus_data.go, written by -make-corpus) lists which candidates the
// program handled at the time the benchmark was defined, and under which of
// the six storage × objective configurations. A run's seed then picks from
// those, so no job of any workload is expected to fail.

// Class names a size class of the corpus.
type Class string

const (
	// Exact holds 5–7-op assays on 2–3 devices and a 4×4 grid: the Auto
	// engine races the exact ILP against the list scheduler on them.
	Exact Class = "exact"
	// Large holds 50–110-op assays on 4–6 devices: beyond
	// sched.MaxExactOps, so only the list scheduler runs.
	Large Class = "large"
)

// configs is the strategy × objective cross every assay runs under. A
// vetted mask's bit i stands for configs[i].
var configs = [6]struct {
	Storage   flowsyn.StoragePolicy
	Objective flowsyn.Objective
}{
	{flowsyn.DistributedStorage, flowsyn.MinimizeTimeAndStorage},
	{flowsyn.DistributedStorage, flowsyn.MinimizeTimeOnly},
	{flowsyn.DedicatedStorage, flowsyn.MinimizeTimeAndStorage},
	{flowsyn.DedicatedStorage, flowsyn.MinimizeTimeOnly},
	{flowsyn.HybridStorage, flowsyn.MinimizeTimeAndStorage},
	{flowsyn.HybridStorage, flowsyn.MinimizeTimeOnly},
}

// configName labels configs[i] in reports.
func configName(i int) string {
	obj := "ts"
	if configs[i].Objective == flowsyn.MinimizeTimeOnly {
		obj = "t"
	}
	return configs[i].Storage.String() + "/" + obj
}

// vetted is one corpus row: candidate J (or the paper assay Name), the
// configurations its synthesis passed every check under (Mask), those under
// which every serve request kind did too (Serve), and the summed synthesis
// wall time of its Mask configurations when it was vetted, in microseconds
// (Cost), which the compile workloads stratify their samples by.
type vetted struct {
	Name        string
	J           int
	Mask, Serve uint8
	Cost        int
}

// faultSpec draws a single fault independently of the chip it hits: the
// kind, the injection instant as a percentage of the makespan, and an index
// reduced modulo the device or grid-segment count.
type faultSpec struct {
	Kind    flowsyn.FaultKind
	Percent int
	Index   int
}

// editSpec is a one-op edit: a new mix operation of Duration seconds
// consuming the product of operation Parent (mod the op count).
type editSpec struct {
	Parent, Duration int
}

// spec is a fully resolved corpus assay.
type spec struct {
	Label   string
	Class   Class
	Graph   *seqgraph.Graph
	Devices int
	Grid    int
	ModelIO bool
	Fault   faultSpec
	Edit    editSpec
	// Mask and Serve list the configurations vetted for the compile and
	// the serve workloads (bit i = configs[i]).
	Mask, Serve uint8
	Cost        int
}

// classBase separates the candidate streams of the two classes.
var classBase = map[Class]int64{Exact: 1_000_000, Large: 2_000_000}

// paperSeed seeds the fault and edit draws of the paper's assays.
var paperSeed = map[string]int64{"PCR": 11, "IVD": 12, "CPA": 13, "RA70": 14, "RA100": 15}

// paperClass assigns the paper's assays to the size classes.
var paperClass = map[string]Class{"PCR": Exact, "IVD": Exact, "CPA": Large, "RA70": Large, "RA100": Large}

// largeGrid scales the connection grid with the op count, matching the
// paper's 5×5 for RA70 and 7×7 for RA100.
func largeGrid(ops int) int { return 5 + (ops-40)/30 }

// candidate resolves candidate j of class c (Mask left zero).
func candidate(c Class, j int) *spec {
	r := rand.New(rand.NewSource(classBase[c] + int64(j)))
	s := &spec{Class: c}
	var ops, width int
	switch c {
	case Exact:
		ops = 5 + r.Intn(3)
		s.Devices = 2 + r.Intn(2)
		width = 2 + r.Intn(2)
		s.Grid = 4
		s.ModelIO = true
	default:
		ops = 50 + r.Intn(61)
		s.Devices = 4 + r.Intn(3)
		width = s.Devices + r.Intn(3)
		s.Grid = largeGrid(ops)
	}
	s.Graph = asParsed(assay.Random(ops, width, r.Int63()))
	s.Label = fmt.Sprintf("%s-%d(%dops/%ddev/%dx%d)", c, j, ops, s.Devices, s.Grid, s.Grid)
	s.Fault, s.Edit = drawVariants(r, ops)
	return s
}

// paper resolves one of the paper's benchmark assays at its Table 2
// parameters (Mask left zero).
func paper(name string) (*spec, error) {
	b, err := assay.Get(name)
	if err != nil {
		return nil, err
	}
	if b.GridRows != b.GridCols {
		return nil, fmt.Errorf("flowbench: %s has a non-square grid", name)
	}
	s := &spec{
		Label:   name,
		Class:   paperClass[name],
		Graph:   asParsed(b.Graph),
		Devices: b.Devices,
		Grid:    b.GridRows,
		ModelIO: b.ModelIO,
	}
	s.Fault, s.Edit = drawVariants(rand.New(rand.NewSource(paperSeed[name])), b.Graph.NumOps())
	return s, nil
}

// drawVariants draws the recovery fault and the resynthesis edit.
func drawVariants(r *rand.Rand, ops int) (faultSpec, editSpec) {
	f := faultSpec{
		Kind:    flowsyn.FaultKind(r.Intn(3)),
		Percent: 20 + r.Intn(61),
		Index:   r.Intn(1 << 16),
	}
	e := editSpec{Parent: r.Intn(ops), Duration: 30 + r.Intn(31)}
	return f, e
}

// resolve turns a corpus row into its spec.
func resolve(c Class, v vetted) (*spec, error) {
	var s *spec
	if v.Name != "" {
		var err error
		if s, err = paper(v.Name); err != nil {
			return nil, err
		}
	} else {
		s = candidate(c, v.J)
	}
	s.Mask, s.Serve, s.Cost = v.Mask, v.Serve, v.Cost
	return s, nil
}

// corpus returns the vetted specs of class c, paper assays first.
func corpus(c Class) ([]*spec, error) {
	rows := exactCorpus
	if c == Large {
		rows = largeCorpus
	}
	out := make([]*spec, 0, len(rows))
	for _, v := range rows {
		s, err := resolve(c, v)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// options returns the public synthesis options of s under configs[cfg] on
// a grid×grid connection grid.
func (s *spec) options(cfg, grid int) flowsyn.Options {
	return flowsyn.Options{
		Devices:   s.Devices,
		Transport: transport,
		GridRows:  grid,
		GridCols:  grid,
		Objective: configs[cfg].Objective,
		Storage:   configs[cfg].Storage,
		ModelIO:   s.ModelIO,
		Verify:    true,
	}
}

// transport is u_c, the device-to-device transport time of every assay.
const transport = 10

// fault resolves the spec's fault against a chip with the given makespan. A
// one-device chip has no device left to absorb a device fault, so it gets a
// storage fault instead, as GridRange.FaultSamples does.
func (s *spec) fault(makespan int) flowsyn.Fault {
	f := flowsyn.Fault{Kind: s.Fault.Kind, Time: makespan * s.Fault.Percent / 100}
	if f.Kind == flowsyn.DeviceFault && s.Devices == 1 {
		f.Kind = flowsyn.StorageFault
	}
	if f.Kind == flowsyn.DeviceFault {
		f.Device = s.Fault.Index % s.Devices
	} else {
		f.Channel = s.Fault.Index % gridSegments(s.Grid)
	}
	return f
}

// gridSegments counts the channel segments of an n×n connection grid.
func gridSegments(n int) int { return 2 * n * (n - 1) }

// edited returns a copy of the assay with the spec's one-op edit applied.
func (s *spec) edited() (*seqgraph.Graph, error) {
	g := s.Graph.Clone()
	id, err := g.AddOperation("edit", seqgraph.Mix, s.Edit.Duration, 1)
	if err != nil {
		return nil, err
	}
	if err := g.AddDependency(seqgraph.OpID(s.Edit.Parent%s.Graph.NumOps()), id); err != nil {
		return nil, err
	}
	return asParsed(g), nil
}

// asParsed returns g as the public API holds it after parsing the assay's
// JSON form, so the traced replay, the bounds and the API all see one graph
// with the same operation and edge order.
func asParsed(g *seqgraph.Graph) *seqgraph.Graph {
	var buf bytes.Buffer
	if err := seqgraph.Write(&buf, g); err != nil {
		panic(fmt.Sprintf("flowbench: writing generated assay %s: %v", g.Name, err))
	}
	parsed, err := seqgraph.Read(&buf)
	if err != nil {
		panic(fmt.Sprintf("flowbench: reading generated assay %s: %v", g.Name, err))
	}
	return parsed
}
