package sched

import (
	"fmt"
	"sort"

	"flowsyn/internal/seqgraph"
)

// TaskKind distinguishes the two ways an intermediate fluid travels.
type TaskKind int

const (
	// Direct moves a fluid from the parent's device straight to the child's
	// device; the transportation path is occupied for the whole window.
	Direct TaskKind = iota
	// Stored moves the fluid out of the parent's device into a channel
	// segment, caches it there, and fetches it to the child's device later —
	// the paper's distributed channel storage (three sub-paths p_{r,1},
	// p_{r,2}, p_{r,3} of Section 3.2).
	Stored
)

// String names the task kind.
func (k TaskKind) String() string {
	if k == Stored {
		return "stored"
	}
	return "direct"
}

// IOKind marks chip-boundary transports (reagent loading, product shipping).
type IOKind int

const (
	// Internal tasks move intermediate fluids between devices.
	Internal IOKind = iota
	// Load brings external reagents/samples from the input port to a device
	// just before an operation starts.
	Load
	// Unload ships a final product from its device to the output port.
	Unload
)

// Task is one transportation requirement extracted from a schedule.
type Task struct {
	// Edge is the producing/consuming dependency (for Internal tasks). For
	// Load/Unload tasks both ends name the loaded/unloaded operation.
	Edge seqgraph.Edge
	// IO marks boundary transports.
	IO IOKind
	// From and To are the parent's and child's devices; for IO tasks one
	// side is the input/output port pseudo-device index chosen by the
	// caller.
	From, To int
	// Kind selects which window set below is meaningful.
	Kind TaskKind

	// Unit marks a Stored task whose fluid waits in the dedicated storage
	// unit instead of a channel segment (dedicated/hybrid strategies): the
	// store transport runs [OutStart, OutEnd), the fluid occupies a unit
	// cell during [OutEnd, FetchStart), and the fetch transport runs
	// [FetchStart, FetchEnd). Unit tasks claim no storage channel.
	Unit bool

	// Direct tasks: the path from From to To is live during [Depart, Arrive).
	Depart, Arrive int

	// Stored tasks: move-out [OutStart, OutEnd), caching [OutEnd,
	// FetchStart), fetch [FetchStart, FetchEnd).
	OutStart, OutEnd     int
	FetchStart, FetchEnd int
}

// CacheDuration returns how long the fluid sits in its storage segment
// (zero for direct tasks).
func (t Task) CacheDuration() int {
	if t.Kind != Stored {
		return 0
	}
	return t.FetchStart - t.OutEnd
}

// String renders the task for logs.
func (t Task) String() string {
	if t.Kind == Direct {
		return fmt.Sprintf("direct %d->%d [%d,%d)", t.From, t.To, t.Depart, t.Arrive)
	}
	where := "cache"
	if t.Unit {
		where = "unit"
	}
	return fmt.Sprintf("stored %d->%d out[%d,%d) %s[%d,%d) fetch[%d,%d)",
		t.From, t.To, t.OutStart, t.OutEnd, where, t.OutEnd, t.FetchStart, t.FetchStart, t.FetchEnd)
}

// Tasks derives all transportation requirements of the schedule.
//
// For every dependency edge (i, j):
//
//   - If both operations run on the same device and no other operation uses
//     that device between them, the fluid never leaves the device (the
//     "takes the result directly" case of the paper's Fig. 2) — no task.
//   - Otherwise, if the gap t^s_j − t^e_i is at most u_c, the fluid travels
//     directly (window [t^e_i, t^s_j)).
//   - Otherwise it is a Stored task: moved out right after the parent ends
//     (⌈u_c/2⌉), cached in a channel segment, and fetched just before the
//     child starts (u_c − ⌈u_c/2⌉). These are the store/fetch blocks in the
//     paper's Fig. 2(b)/(c).
//
// Tasks are returned ordered by the time their first movement starts.
func (s *Schedule) Tasks() []Task {
	g := s.Graph
	perDevice := s.byDevice()
	intervening := func(dev, from, to int) bool {
		for _, a := range perDevice[dev] {
			if a.Start >= from && a.Start < to {
				return true
			}
		}
		return false
	}

	outLen := (s.Transport + 1) / 2
	fetchLen := s.Transport - outLen

	// First pass: classify each transported edge and compute departures.
	var tasks []Task
	storedByChild := make(map[seqgraph.OpID][]int) // child -> task indices
	for _, e := range g.Edges() {
		p, c := s.Assignments[e.Parent], s.Assignments[e.Child]
		if w, ok := s.UnitWindows[e]; ok {
			// The scheduler routed this fluid through the dedicated unit:
			// its windows are the granted port transports, full u_c each —
			// no squeeze and no sibling staggering (the port timeline
			// already serializes every access).
			tasks = append(tasks, Task{
				Edge: e, From: p.Device, To: c.Device,
				Kind: Stored, Unit: true,
				OutStart: w.StoreStart, OutEnd: w.StoreStart + s.Transport,
				FetchStart: w.FetchStart, FetchEnd: w.FetchStart + s.Transport,
			})
			continue
		}
		sameDev := p.Device == c.Device
		if sameDev && !intervening(p.Device, p.End, c.Start) {
			continue // result stays inside the device
		}
		depart := p.End + s.DepartOffset(e)
		if depart > c.Start-1 {
			depart = c.Start - 1 // defensive clamp for hand-built schedules
		}
		gap := c.Start - depart
		t := Task{Edge: e, From: p.Device, To: c.Device}
		if !sameDev && gap <= s.Transport {
			t.Kind = Direct
			t.Depart, t.Arrive = depart, c.Start
		} else {
			// Same-device round trips are always Stored (the fluid must
			// leave the device and come back); squeeze the move windows if
			// the gap is tighter than a full u_c.
			o, f := outLen, fetchLen
			if gap < o+f {
				o = gap / 2
				f = gap - o
			}
			t.Kind = Stored
			t.OutStart, t.OutEnd = depart, depart+o
			t.FetchStart, t.FetchEnd = c.Start-f, c.Start
			storedByChild[e.Child] = append(storedByChild[e.Child], len(tasks))
		}
		tasks = append(tasks, t)
	}

	// Second pass: a consumer with several cached inputs fetches them one
	// after the other (its device admits one sample at a time), so sibling
	// fetch windows are staggered backward from the child's start.
	for _, idxs := range storedByChild {
		if len(idxs) < 2 {
			continue
		}
		sort.Slice(idxs, func(a, b int) bool {
			ta, tb := tasks[idxs[a]], tasks[idxs[b]]
			if ta.OutStart != tb.OutStart {
				return ta.OutStart < tb.OutStart
			}
			return ta.Edge.Parent < tb.Edge.Parent
		})
		// The last-departing sample fetches last (closest to the start).
		for rank, i := range idxs {
			t := &tasks[i]
			shift := (len(idxs) - 1 - rank) * fetchLen
			fe := t.FetchEnd - shift
			fs := fe - (t.FetchEnd - t.FetchStart)
			if fs < t.OutEnd {
				fs = t.OutEnd
			}
			if fs >= fe {
				fs = fe - 1
				if fs < t.OutStart {
					fs = t.OutStart
				}
				if t.OutEnd > fs {
					t.OutEnd = fs
				}
			}
			t.FetchStart, t.FetchEnd = fs, fe
		}
	}
	sort.SliceStable(tasks, func(i, j int) bool {
		si, sj := tasks[i].startTime(), tasks[j].startTime()
		if si != sj {
			return si < sj
		}
		return tasks[i].Edge.Parent < tasks[j].Edge.Parent
	})
	return tasks
}

func (t Task) startTime() int {
	if t.Kind == Direct {
		return t.Depart
	}
	return t.OutStart
}

// IOTasks derives the chip-boundary transports of the schedule: one Load per
// operation with external inputs (arriving in the last move-in slot before
// the operation starts) and one Unload per sink operation (departing right
// after it ends). inPort and outPort are the pseudo-device indices the
// caller assigned to the chip's input and output ports.
func (s *Schedule) IOTasks(inPort, outPort int) []Task {
	g := s.Graph
	outLen := (s.Transport + 1) / 2
	fetchLen := s.Transport - outLen
	var loads, unloads []Task
	for _, op := range g.Operations() {
		a := s.Assignments[op.ID]
		if op.Inputs > 0 {
			loads = append(loads, Task{
				Edge: seqgraph.Edge{Parent: op.ID, Child: op.ID},
				IO:   Load,
				From: inPort, To: a.Device,
				Kind:   Direct,
				Depart: a.Start - fetchLen, Arrive: a.Start,
			})
		}
		if len(g.Children(op.ID)) == 0 {
			unloads = append(unloads, Task{
				Edge: seqgraph.Edge{Parent: op.ID, Child: op.ID},
				IO:   Unload,
				From: a.Device, To: outPort,
				Kind:   Direct,
				Depart: a.End, Arrive: a.End + outLen,
			})
		}
	}

	// All loads share the single input port, so their windows are
	// serialized: a load whose window would overlap the next one's is
	// shifted earlier (the reagent simply arrives a little before its
	// operation needs it). Unloads shift later symmetrically.
	sort.SliceStable(loads, func(i, j int) bool {
		if loads[i].Arrive != loads[j].Arrive {
			return loads[i].Arrive < loads[j].Arrive
		}
		return loads[i].Edge.Parent < loads[j].Edge.Parent
	})
	for i := len(loads) - 2; i >= 0; i-- {
		if loads[i].Arrive > loads[i+1].Depart {
			loads[i].Arrive = loads[i+1].Depart
			loads[i].Depart = loads[i].Arrive - fetchLen
		}
	}
	// Clamp at time zero: the earliest loads may be squeezed.
	for i := range loads {
		if loads[i].Depart < 0 {
			loads[i].Depart = 0
		}
		if loads[i].Arrive <= loads[i].Depart {
			loads[i].Arrive = loads[i].Depart + 1
		}
	}
	sort.SliceStable(unloads, func(i, j int) bool {
		if unloads[i].Depart != unloads[j].Depart {
			return unloads[i].Depart < unloads[j].Depart
		}
		return unloads[i].Edge.Parent < unloads[j].Edge.Parent
	})
	for i := 1; i < len(unloads); i++ {
		if unloads[i].Depart < unloads[i-1].Arrive {
			unloads[i].Depart = unloads[i-1].Arrive
			unloads[i].Arrive = unloads[i].Depart + outLen
		}
	}

	tasks := append(loads, unloads...)
	sort.SliceStable(tasks, func(i, j int) bool {
		if tasks[i].Depart != tasks[j].Depart {
			return tasks[i].Depart < tasks[j].Depart
		}
		return tasks[i].Edge.Parent < tasks[j].Edge.Parent
	})
	return tasks
}

// StoreCount returns the number of Stored tasks — the "store operations" the
// paper counts in Fig. 2.
func (s *Schedule) StoreCount() int {
	n := 0
	for _, t := range s.Tasks() {
		if t.Kind == Stored {
			n++
		}
	}
	return n
}

// StorageCapacity returns the maximum number of fluids cached simultaneously:
// the required capacity of a storage system for this schedule (three for the
// paper's Fig. 2(b) schedule, two for Fig. 2(c)).
func (s *Schedule) StorageCapacity() int {
	return s.storagePeak(func(Task) bool { return true })
}

// UnitCells returns the peak number of fluids resident in the dedicated
// storage unit simultaneously — the cell count its mux must address. Zero
// for distributed schedules and for strategy schedules that never stored.
func (s *Schedule) UnitCells() int {
	return s.storagePeak(func(t Task) bool { return t.Unit })
}

// storagePeak returns the peak number of stored fluids that keep selects
// cached at once.
func (s *Schedule) storagePeak(keep func(Task) bool) int {
	type event struct {
		t, delta int
	}
	var evs []event
	for _, t := range s.Tasks() {
		if t.Kind != Stored || !keep(t) {
			continue
		}
		evs = append(evs, event{t.OutEnd, +1}, event{t.FetchStart, -1})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].delta < evs[j].delta // fetch before store at equal time
	})
	cur, max := 0, 0
	for _, e := range evs {
		cur += e.delta
		if cur > max {
			max = cur
		}
	}
	return max
}
