package sched

import (
	"sort"

	"flowsyn/internal/seqgraph"
)

// StorageModel abstracts where intermediate fluids wait between producer and
// consumer. The scheduling engines consult it while placing operations, so a
// schedule is *optimized* under the chosen storage policy instead of being
// degraded after the fact:
//
//   - distributed channel storage (the paper's method): a nil model, or one
//     with unlimited channel slots and no serialized port — today's behavior;
//   - a dedicated storage unit (the paper's Fig. 1(c) baseline, Tseng & Li's
//     "Storage and Caching" companion): zero channel slots, every stored
//     fluid pays a full-u_c store and a full-u_c fetch through one port;
//   - a hybrid cache: a bounded set of channel segments in front of the unit,
//     overflowing (or evicting) into the unit under a pluggable policy.
//
// The concrete strategies live in internal/storage; sched only needs this
// minimal view (keeping the dependency pointing storage -> sched).
type StorageModel interface {
	// Name identifies the strategy ("distributed", "dedicated", "hybrid").
	Name() string
	// Serialized reports whether stored fluids funnel through the dedicated
	// unit's single port (dedicated and hybrid strategies).
	Serialized() bool
	// ChannelSlots returns how many channel segments may cache fluids
	// simultaneously: negative for unlimited (distributed), zero for none
	// (dedicated unit only), positive for the hybrid cache bound.
	ChannelSlots() int
	// EvictionName names the hybrid cache eviction policy ("lru" or
	// "earliest-next-fetch"); irrelevant for the other strategies.
	EvictionName() string
}

// UnitWindow records the port grants of one edge stored in the dedicated
// unit: the store transport occupies the port during
// [StoreStart, StoreStart+u_c) and the fetch during
// [FetchStart, FetchStart+u_c), with FetchStart >= StoreStart+u_c. The fluid
// resides in a unit cell between the two transports.
type UnitWindow struct {
	StoreStart, FetchStart int
}

// modelIsDistributed reports whether the model behaves exactly like the
// paper's distributed channel storage (the bit-identical fast path).
func modelIsDistributed(m StorageModel) bool {
	return m == nil || (!m.Serialized() && m.ChannelSlots() < 0)
}

// PortTimeline books exclusive windows on the dedicated unit's single port.
// Windows are granted earliest-fit in booking order; ties between a store and
// a fetch requested at the same instant therefore serialize deterministically
// in the order the caller books them. The zero value is an idle port.
type PortTimeline struct {
	windows [][2]int
}

// Grant books the earliest free window of the given length starting at or
// after t and returns its start. The result is independent of the internal
// window order (the scan restarts until no conflict remains).
func (l *PortTimeline) Grant(t, length int) int {
	if length <= 0 {
		return t
	}
	for {
		conflict := false
		for _, w := range l.windows {
			if t < w[1] && w[0] < t+length {
				conflict = true
				if w[1] > t {
					t = w[1]
				}
			}
		}
		if !conflict {
			l.windows = append(l.windows, [2]int{t, t + length})
			return t
		}
	}
}

// peekPair returns the store/fetch grants a stored edge departing at t would
// receive, without booking them. fetchFloor is the earliest instant the fetch
// may begin (the chamber-readiness bound; see storageState.fetchStartFloor).
func (l *PortTimeline) peekPair(t, length, fetchFloor int) (gs, gf int) {
	scratch := PortTimeline{windows: append([][2]int(nil), l.windows...)}
	gs = scratch.Grant(t, length)
	gf = scratch.Grant(max(gs+length, fetchFloor), length)
	return gs, gf
}

// channelResident is one committed fluid cached in a channel segment under
// the hybrid strategy. Its conservative residency window [depart, fetchStart)
// is a superset of the Tasks()-derived caching window, so capacity accounting
// here implies capacity feasibility of the derived workload. hint preserves
// the consumer-side readiness bound from planning time, so a later demotion
// into the unit keeps the chamber move-in legal.
type channelResident struct {
	edge       seqgraph.Edge
	depart     int
	fetchStart int
	hint       int
}

// storageState tracks the storage side of a schedule under construction: the
// unit's port timeline, the granted unit windows, the committed channel-cache
// residents and the total port queueing delay. A nil/distributed model keeps
// the state inert and the engines on their historical code path.
type storageState struct {
	model      StorageModel
	uc         int
	port       PortTimeline
	windows    map[seqgraph.Edge]UnitWindow
	residents  []channelResident
	queueDelay int
}

func newStorageState(m StorageModel, transport int) *storageState {
	st := &storageState{model: m, uc: transport}
	if !modelIsDistributed(m) {
		st.windows = make(map[seqgraph.Edge]UnitWindow)
	}
	return st
}

// active reports whether storage decisions deviate from distributed
// channel storage.
func (st *storageState) active() bool { return st != nil && !modelIsDistributed(st.model) }

// seedUnit installs an already-granted unit window (a pinned recovery
// prefix), reserving its port time verbatim.
func (st *storageState) seedUnit(e seqgraph.Edge, w UnitWindow) {
	st.windows[e] = w
	st.port.windows = append(st.port.windows, [2]int{w.StoreStart, w.StoreStart + st.uc})
	st.port.windows = append(st.port.windows, [2]int{w.FetchStart, w.FetchStart + st.uc})
}

// channelFits reports whether adding a resident with window [from, to) keeps
// the committed channel occupancy within the model's slot bound at every
// instant.
func (st *storageState) channelFits(from, to int) bool {
	slots := st.model.ChannelSlots()
	if slots < 0 {
		return true
	}
	if slots == 0 {
		return false
	}
	// Peak concurrent residents over [from, to), plus the newcomer.
	type event struct{ t, d int }
	var evs []event
	for _, r := range st.residents {
		lo, hi := r.depart, r.fetchStart
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if lo < hi {
			evs = append(evs, event{lo, +1}, event{hi, -1})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].d < evs[j].d
	})
	cur := 0
	for _, e := range evs {
		cur += e.d
		if cur+1 > slots {
			return false
		}
	}
	return true
}

// demoteVictim tries to free a channel slot over [from, to) by moving one
// committed resident into the dedicated unit, chosen by the model's eviction
// policy: "lru" demotes the oldest resident (earliest departure),
// "earliest-next-fetch" the resident whose consumer fetches soonest (it
// would leave the cache first anyway, so its unit stay is shortest). A
// demotion is legal only when the port can serve the victim's full store and
// fetch before its already-committed consumer starts; illegal candidates are
// skipped in policy order. Reports whether a resident was demoted.
func (st *storageState) demoteVictim(from, to int) bool {
	var cands []int
	for i, r := range st.residents {
		if r.depart < to && from < r.fetchStart {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return false
	}
	lru := st.model.EvictionName() != "earliest-next-fetch"
	sort.Slice(cands, func(a, b int) bool {
		ra, rb := st.residents[cands[a]], st.residents[cands[b]]
		if lru {
			if ra.depart != rb.depart {
				return ra.depart < rb.depart
			}
		} else if ra.fetchStart != rb.fetchStart {
			return ra.fetchStart < rb.fetchStart
		}
		if ra.edge.Parent != rb.edge.Parent {
			return ra.edge.Parent < rb.edge.Parent
		}
		return ra.edge.Child < rb.edge.Child
	})
	for _, i := range cands {
		r := st.residents[i]
		gs, gf := st.port.peekPair(r.depart, st.uc, st.fetchStartFloor(r.depart, r.hint))
		if gf+st.uc > r.fetchStart {
			continue // cannot re-serve this fluid through the port in time
		}
		gs = st.port.Grant(r.depart, st.uc)
		floor := st.fetchStartFloor(gs, r.hint)
		gf = st.port.Grant(floor, st.uc)
		st.windows[r.edge] = UnitWindow{StoreStart: gs, FetchStart: gf}
		st.queueDelay += (gs - r.depart) + (gf - floor)
		st.residents = append(st.residents[:i], st.residents[i+1:]...)
		return true
	}
	return false
}

// parentPlan is the storage decision for one non-direct parent of the
// operation being placed. hint is the consumer-side readiness estimate the
// plan was made against (device free, flush applied).
type parentPlan struct {
	edge    seqgraph.Edge
	depart  int
	unit    bool
	arrival int
	hint    int
}

// fetchMoveIn is the chamber move-in length: the trailing portion of a fetch
// transport during which the fluid squeezes into the consumer chamber — the
// same per-fetch cost the distributed model charges at the consumer
// (fetchLen = u_c - outLen).
func (st *storageState) fetchMoveIn() int { return st.uc - (st.uc+1)/2 }

// fetchStartFloor returns the earliest instant a unit fetch may begin so its
// chamber move-in does not overlap the consumer chamber's previous occupancy:
// the fetch must not complete before hint (chamber ready) plus the move-in
// length. Without this floor a fetch could deliver its fluid into a chamber
// still running the previous reaction — and the dedicated strategy would
// dodge the move-in cost the distributed model pays per fetch.
func (st *storageState) fetchStartFloor(gs, hint int) int {
	return max(gs+st.uc, hint+st.fetchMoveIn()-st.uc)
}

// planParent decides how the fluid of edge e (departing at depart) reaches
// its consumer under the model, without mutating state: through a channel
// (arrival depart+u_c, one fetch slot at the consumer) or through the unit's
// port (arrival = fetch grant + u_c). startHint bounds the capacity window
// for the hybrid admission test.
func (st *storageState) planParent(e seqgraph.Edge, depart, startHint int) parentPlan {
	p := parentPlan{edge: e, depart: depart, hint: startHint}
	if !st.active() {
		p.arrival = depart + st.uc
		return p
	}
	to := startHint
	if to < depart+st.uc {
		to = depart + st.uc
	}
	if !st.model.Serialized() || st.channelFits(depart, to) {
		p.arrival = depart + st.uc
		return p
	}
	p.unit = true
	_, gf := st.port.peekPair(depart, st.uc, st.fetchStartFloor(depart, startHint))
	p.arrival = gf + st.uc
	return p
}

// commitParent finalizes one parent plan: unit plans book their port windows
// (re-granted now, so interleaved bookings stay consistent) and channel plans
// under a bounded cache first retry admission — evicting a resident into the
// unit when the policy finds a legal victim — before overflowing to the unit
// themselves. It returns the (possibly updated) plan; channel residents are
// registered later via commitResidents once the consumer's start is final.
func (st *storageState) commitParent(p parentPlan, startHint int) parentPlan {
	if !st.active() {
		return p
	}
	to := startHint
	if to < p.depart+st.uc {
		to = p.depart + st.uc
	}
	if !p.unit && st.model.Serialized() && st.model.ChannelSlots() >= 0 {
		for !st.channelFits(p.depart, to) {
			if !st.demoteVictim(p.depart, to) {
				p.unit = true
				break
			}
		}
	}
	if p.unit {
		gs := st.port.Grant(p.depart, st.uc)
		floor := st.fetchStartFloor(gs, p.hint)
		gf := st.port.Grant(floor, st.uc)
		st.windows[p.edge] = UnitWindow{StoreStart: gs, FetchStart: gf}
		st.queueDelay += (gs - p.depart) + (gf - floor)
		p.arrival = gf + st.uc
		return p
	}
	p.arrival = p.depart + st.uc
	return p
}

// pendingFits reports whether plan i, as a channel resident with window
// [depart, start), keeps the slot bound together with both the committed
// residents and the op's *other* still-channel plans — siblings occupy slots
// simultaneously, so checking each against the committed set alone would let
// an op with several stored parents overshoot the cache.
func (st *storageState) pendingFits(plans []parentPlan, i, start int) bool {
	saved := len(st.residents)
	for j := range plans {
		if j == i || plans[j].unit {
			continue
		}
		st.residents = append(st.residents, channelResident{
			edge: plans[j].edge, depart: plans[j].depart, fetchStart: start, hint: plans[j].hint,
		})
	}
	ok := st.channelFits(plans[i].depart, start)
	st.residents = st.residents[:saved]
	return ok
}

// commitResidents registers the committed channel-cached edges of one placed
// operation with their final residency windows, flipping any edge whose
// enlarged window no longer fits to the unit. It returns the possibly-raised
// consumer start (a flipped edge arrives at fetch-grant + u_c, which may land
// after the provisional start).
func (st *storageState) commitResidents(plans []parentPlan, start int) int {
	if !st.active() {
		return start
	}
	for again := true; again; {
		again = false
		for i := range plans {
			p := &plans[i]
			if p.unit || st.pendingFits(plans, i, start) {
				continue
			}
			if st.demoteVictim(p.depart, start) {
				again = true
				continue
			}
			gs := st.port.Grant(p.depart, st.uc)
			floor := st.fetchStartFloor(gs, p.hint)
			gf := st.port.Grant(floor, st.uc)
			st.windows[p.edge] = UnitWindow{StoreStart: gs, FetchStart: gf}
			st.queueDelay += (gs - p.depart) + (gf - floor)
			p.unit = true
			if gf+st.uc > start {
				start = gf + st.uc
			}
			again = true
		}
	}
	for _, p := range plans {
		if !p.unit {
			st.residents = append(st.residents, channelResident{edge: p.edge, depart: p.depart, fetchStart: start, hint: p.hint})
		}
	}
	return start
}

// install attaches the granted unit windows and accumulated queue delay to a
// finished schedule.
func (st *storageState) install(s *Schedule) {
	if !st.active() {
		return
	}
	if len(st.windows) > 0 {
		s.UnitWindows = st.windows
	}
	s.UnitQueueDelay = st.queueDelay
}
