package sim

import (
	"fmt"

	"flowsyn/internal/arch"
	"flowsyn/internal/sched"
	"flowsyn/internal/seqgraph"
)

// FaultKind classifies what broke on the chip.
type FaultKind int

const (
	// FaultDevice marks a device chamber failed: it can execute no further
	// operations. Its interface ports stay usable, so a result already
	// computed inside can still be moved out.
	FaultDevice FaultKind = iota
	// FaultChannel marks a channel segment (its valve pair) failed: no
	// re-planned transport or storage may use it.
	FaultChannel
	// FaultStorage marks a channel segment degraded: it still carries moving
	// fluid, but can no longer hold a cached sample reliably.
	FaultStorage
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultDevice:
		return "device"
	case FaultChannel:
		return "channel"
	case FaultStorage:
		return "degraded-storage"
	default:
		return fmt.Sprintf("fault-kind(%d)", int(k))
	}
}

// Fault is one mid-execution failure, detected at Time. Operations started
// strictly before Time keep their devices and times (along with the internal
// transports feeding them, which all complete before Time); everything else
// is re-planned around the failed resource by the recovery path.
type Fault struct {
	// Kind classifies the failed resource.
	Kind FaultKind
	// Time is the detection instant in seconds.
	Time int
	// Device is the failed device index (FaultDevice only).
	Device int
	// Edge is the failed or degraded channel segment (FaultChannel and
	// FaultStorage).
	Edge arch.EdgeID
}

// String renders the fault for logs.
func (f Fault) String() string {
	switch f.Kind {
	case FaultDevice:
		return fmt.Sprintf("device %d fails at t=%d", f.Device, f.Time)
	case FaultChannel:
		return fmt.Sprintf("channel segment %d fails at t=%d", f.Edge, f.Time)
	case FaultStorage:
		return fmt.Sprintf("storage on segment %d degrades at t=%d", f.Edge, f.Time)
	default:
		return fmt.Sprintf("unknown fault at t=%d", f.Time)
	}
}

// Validate checks the fault against the execution it is injected into: the
// instant must not precede the start, and the named resource must exist.
func (f Fault) Validate(s *sched.Schedule, res *arch.Result) error {
	if f.Time < 0 {
		return fmt.Errorf("sim: fault time %d before execution start", f.Time)
	}
	switch f.Kind {
	case FaultDevice:
		if f.Device < 0 || f.Device >= s.Devices {
			return fmt.Errorf("sim: fault names device %d of %d", f.Device, s.Devices)
		}
	case FaultChannel, FaultStorage:
		if int(f.Edge) < 0 || int(f.Edge) >= res.Grid.NumEdges() {
			return fmt.Errorf("sim: fault names channel segment %d outside %s grid", f.Edge, res.Grid)
		}
	default:
		return fmt.Errorf("sim: unknown fault kind %d", int(f.Kind))
	}
	return nil
}

// Prefix is the frozen part of an execution cut at a fault instant: the work
// a fault cannot undo, extracted for the recovery path to pin.
type Prefix struct {
	// Time is the instant the prefix was cut at.
	Time int
	// Assignments are the schedule rows of every operation started strictly
	// before Time, with their original devices and times. The set is
	// ancestor-closed: a parent always starts before its children.
	Assignments []sched.Assignment
	// DepartOffsets are the recorded departure offsets of every transported
	// edge whose consumer is preserved — copying them verbatim is what makes
	// the preserved transport tasks reproduce byte-identically when the
	// recovered schedule re-derives its workload.
	DepartOffsets map[seqgraph.Edge]int
	// Tasks are the internal transport tasks feeding preserved operations.
	// Each completes strictly before Time (it ends by its consumer's start).
	Tasks []sched.Task
	// Routes are the routed realizations of Tasks, verbatim from the original
	// architecture, in original route order.
	Routes []arch.Route

	pinned map[seqgraph.OpID]bool
}

// Pinned reports whether op is part of the preserved prefix.
func (p *Prefix) Pinned(op seqgraph.OpID) bool { return p.pinned[op] }

// ExecutionPrefix freezes the work a fault detected at time t cannot undo:
// operations started strictly before t (completed or in flight — a running
// device finishes its committed reaction), the departure slots of their
// inputs, and the internal routes that delivered those inputs. Chip-boundary
// I/O transports are deliberately not part of the prefix: their windows are
// globally serialized over the shared ports, so the recovery path re-plans
// them wholesale.
func (sim *Simulator) ExecutionPrefix(t int) *Prefix {
	p := &Prefix{
		Time:          t,
		DepartOffsets: make(map[seqgraph.Edge]int),
		pinned:        make(map[seqgraph.OpID]bool),
	}
	for _, a := range sim.sched.Assignments {
		if a.Start < t {
			p.pinned[a.Op] = true
			p.Assignments = append(p.Assignments, a)
		}
	}
	for e, off := range sim.sched.DepartOffsets {
		if p.pinned[e.Child] {
			p.DepartOffsets[e] = off
		}
	}
	for _, route := range sim.res.Routes {
		task := route.Task
		if task.IO == sched.Internal && p.pinned[task.Edge.Child] {
			p.Tasks = append(p.Tasks, task)
			p.Routes = append(p.Routes, route)
		}
	}
	return p
}
