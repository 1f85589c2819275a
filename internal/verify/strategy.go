package verify

import (
	"cmp"
	"slices"
	"strings"

	"flowsyn/internal/arch"
	"flowsyn/internal/sched"
)

// checkStrategy re-derives the storage-strategy invariants of a schedule from
// first principles, given the storage model it was synthesized under:
//
//   - distributed: no fluid may touch the dedicated unit — no unit tasks, no
//     granted unit windows, zero port queueing;
//   - serialized strategies (dedicated, hybrid): port exclusivity — the unit's
//     single port serves one transport at a time, so every store and fetch
//     window is pairwise disjoint — and window legality: each store starts at
//     or after its producer ends, each fetch completes at or before its
//     consumer starts, and store precedes fetch by at least u_c (a demotion
//     into the unit is legal only under exactly these conditions, so this is
//     also the eviction-legality check);
//   - bounded channel cache (hybrid): at no instant do more fluids reside in
//     channel segments than the cache has slots;
//   - dedicated (zero slots): every stored fluid goes through the unit.
//
// Like the rest of this package it trusts no engine bookkeeping: the unit
// workload is re-derived from the schedule's tasks, not from UnitWindows.
func (r *Report) checkStrategy(s *sched.Schedule, m sched.StorageModel, tasks []sched.Task) {
	g := s.Graph
	distributed := m == nil || (!m.Serialized() && m.ChannelSlots() < 0)

	var unit, channel []sched.Task
	for _, t := range tasks {
		if t.Kind != sched.Stored {
			continue
		}
		if t.Unit {
			unit = append(unit, t)
		} else {
			channel = append(channel, t)
		}
	}

	if distributed {
		if len(unit) > 0 {
			r.addf(InvStorageStrategy, "distributed storage but %d task(s) routed through a dedicated unit", len(unit))
		}
		if len(s.UnitWindows) > 0 {
			r.addf(InvStorageStrategy, "distributed storage but %d unit window(s) granted", len(s.UnitWindows))
		}
		if s.UnitQueueDelay != 0 {
			r.addf(InvStorageStrategy, "distributed storage but %d s of port queue delay reported", s.UnitQueueDelay)
		}
		return
	}

	// Port exclusivity: every unit store and fetch transport holds the unit's
	// single port exclusively. A window is named only when a violation or a
	// tie on start needs it.
	type window struct {
		start, end int
		fetch      bool
		task       int // index in unit
	}
	desc := func(w window) string {
		if w.fetch {
			return "fetch " + taskName(g, unit[w.task])
		}
		return "store " + taskName(g, unit[w.task])
	}
	ports := make([]window, 0, 2*len(unit))
	for i, t := range unit {
		ports = append(ports,
			window{t.OutStart, t.OutEnd, false, i},
			window{t.FetchStart, t.FetchEnd, true, i})
	}
	slices.SortFunc(ports, func(a, b window) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return strings.Compare(desc(a), desc(b))
	})
	for i := 1; i < len(ports); i++ {
		if ports[i].start < ports[i-1].end {
			r.addf(InvStorageStrategy, "unit port serves %s [%d,%d) and %s [%d,%d) simultaneously",
				desc(ports[i-1]), ports[i-1].start, ports[i-1].end,
				desc(ports[i]), ports[i].start, ports[i].end)
		}
	}

	// Window legality (also the eviction-legality condition: a fluid may be
	// demoted into the unit only when its full store and fetch fit between
	// producer end and consumer start).
	for _, t := range unit {
		p, c := s.Assignments[t.Edge.Parent], s.Assignments[t.Edge.Child]
		if t.OutStart < p.End {
			r.addf(InvStorageStrategy, "unit store %s begins at %d before its producer ends at %d",
				taskName(g, t), t.OutStart, p.End)
		}
		if t.OutEnd-t.OutStart != s.Transport || t.FetchEnd-t.FetchStart != s.Transport {
			r.addf(InvStorageStrategy, "unit task %s transports are not full u_c=%d: store [%d,%d), fetch [%d,%d)",
				taskName(g, t), s.Transport, t.OutStart, t.OutEnd, t.FetchStart, t.FetchEnd)
		}
		if t.FetchStart < t.OutEnd {
			r.addf(InvStorageStrategy, "unit task %s fetches at %d before its store completes at %d",
				taskName(g, t), t.FetchStart, t.OutEnd)
		}
		if t.FetchEnd > c.Start {
			r.addf(InvStorageStrategy, "unit fetch %s completes at %d after its consumer starts at %d",
				taskName(g, t), t.FetchEnd, c.Start)
		}
	}

	// Channel-cache capacity: a bounded cache may never hold more residents
	// than it has slots (dedicated storage has zero slots, so any
	// channel-cached fluid is a violation on its own).
	if slots := m.ChannelSlots(); slots >= 0 {
		if slots == 0 && len(channel) > 0 {
			r.addf(InvStorageStrategy, "dedicated storage but %d fluid(s) cached in channel segments", len(channel))
		}
		var evs []cacheEvent
		for _, t := range channel {
			if t.OutEnd < t.FetchStart {
				evs = append(evs, cacheEvent{t.OutEnd, +1}, cacheEvent{t.FetchStart, -1})
			}
		}
		if peak := peakOf(evs); peak > slots {
			r.addf(InvStorageStrategy, "channel cache holds %d fluids at its peak but has only %d slot(s)", peak, slots)
		}
	}
}

// CheckAllStrategy runs the full verification (CheckAll) plus the
// storage-strategy invariants for the model the result was synthesized under.
// A nil model means distributed channel storage.
func CheckAllStrategy(s *sched.Schedule, a *arch.Result, m sched.StorageModel) (*Report, error) {
	rep, tasks, err := checkAll(s, a)
	if err != nil {
		return rep, err
	}
	rep.checkStrategy(s, m, tasks)
	return rep, rep.Err()
}
