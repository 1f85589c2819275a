// Package storage is the pluggable storage-strategy subsystem: it answers
// the paper's "transport or store?" question three different ways and lets
// the rest of the pipeline synthesize each answer head to head.
//
//   - Distributed: the paper's own method — intermediate fluids wait in the
//     transportation channels around the devices; unlimited concurrent
//     segments, no extra valves beyond the network's own.
//   - Dedicated: the Fig. 1(c) baseline from Tseng & Li's "Storage and
//     Caching" companion paper — one storage unit with addressable cells
//     behind a single serialized port. Every stored fluid pays a full-u_c
//     store plus a full-u_c fetch through that port, and the unit charges a
//     mux-tree valve cost for its cells.
//   - Hybrid: a bounded set of channel segments acting as a cache in front
//     of the unit, with pluggable eviction (LRU or earliest-next-fetch);
//     overflow and evictions go to the unit.
//
// New builds the sched.StorageModel of a Config: both scheduling engines plan
// storage through it, and verification checks the strategy invariants
// against it.
package storage

import (
	"fmt"
	"strings"

	"flowsyn/internal/sched"
)

// Policy selects a storage strategy.
type Policy int

const (
	// Distributed is the paper's distributed channel storage (default).
	Distributed Policy = iota
	// Dedicated is a single storage unit behind a serialized port.
	Dedicated
	// Hybrid caches fluids in a bounded set of channel segments backed by
	// the dedicated unit.
	Hybrid
)

// String names the policy (also used in cache keys and CLI flags).
func (p Policy) String() string {
	switch p {
	case Dedicated:
		return "dedicated"
	case Hybrid:
		return "hybrid"
	default:
		return "distributed"
	}
}

// ParsePolicy converts a CLI/API spelling into a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "distributed", "channels", "channel":
		return Distributed, nil
	case "dedicated", "unit":
		return Dedicated, nil
	case "hybrid", "cache":
		return Hybrid, nil
	}
	return Distributed, fmt.Errorf("storage: unknown policy %q (want distributed, dedicated or hybrid)", s)
}

// Eviction selects which cached fluid the hybrid strategy demotes to the
// unit when its channel slots run out.
type Eviction int

const (
	// LRU demotes the resident that has been cached longest (earliest
	// departure from its producer).
	LRU Eviction = iota
	// EarliestNextFetch demotes the resident whose consumer fetches
	// soonest: it would leave the cache first anyway, so its stay in the
	// unit is the shortest possible.
	EarliestNextFetch
)

// String names the eviction policy.
func (e Eviction) String() string {
	if e == EarliestNextFetch {
		return "earliest-next-fetch"
	}
	return "lru"
}

// ParseEviction converts a CLI/API spelling into an Eviction.
func ParseEviction(s string) (Eviction, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "lru":
		return LRU, nil
	case "earliest-next-fetch", "enf", "next-fetch":
		return EarliestNextFetch, nil
	}
	return LRU, fmt.Errorf("storage: unknown eviction policy %q (want lru or earliest-next-fetch)", s)
}

// DefaultCacheSlots is the hybrid cache bound used when none is given.
const DefaultCacheSlots = 2

// Config selects and parameterizes a strategy. The zero value is the
// distributed strategy (today's behavior).
type Config struct {
	// Policy picks the strategy.
	Policy Policy
	// CacheSlots bounds the hybrid channel cache (ignored otherwise);
	// zero means DefaultCacheSlots.
	CacheSlots int
	// Eviction picks the hybrid cache's eviction policy.
	Eviction Eviction
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.Policy < Distributed || c.Policy > Hybrid {
		return fmt.Errorf("storage: unknown policy %d", c.Policy)
	}
	if c.CacheSlots < 0 {
		return fmt.Errorf("storage: negative cache slots %d", c.CacheSlots)
	}
	if c.Eviction < LRU || c.Eviction > EarliestNextFetch {
		return fmt.Errorf("storage: unknown eviction policy %d", c.Eviction)
	}
	return nil
}

// Key returns a short deterministic discriminator for cache keys: schedules
// under different strategies are different artifacts and must never collide
// in the service's schedule cache or the persistent store.
func (c Config) Key() string {
	switch c.Policy {
	case Dedicated:
		return "dedicated"
	case Hybrid:
		return fmt.Sprintf("hybrid:%d:%s", c.slots(), c.Eviction)
	default:
		return "distributed"
	}
}

func (c Config) slots() int {
	if c.CacheSlots == 0 {
		return DefaultCacheSlots
	}
	return c.CacheSlots
}

// New builds the storage model of a config. Unknown policies fall back to
// distributed channel storage (callers wanting errors use Config.Validate).
func New(c Config) sched.StorageModel {
	if c.Policy != Dedicated && c.Policy != Hybrid {
		c.Policy = Distributed
	}
	return strategy{cfg: c}
}

// strategy is one storage policy as the scheduling engines see it:
// distributed channel storage has unlimited channel slots and no port, the
// dedicated unit has zero slots behind its serialized port, and the hybrid
// cache has a bounded number of slots in front of the unit.
type strategy struct{ cfg Config }

func (s strategy) Name() string     { return s.cfg.Policy.String() }
func (s strategy) Serialized() bool { return s.cfg.Policy != Distributed }

func (s strategy) ChannelSlots() int {
	switch s.cfg.Policy {
	case Dedicated:
		return 0
	case Hybrid:
		return s.cfg.slots()
	default:
		return -1
	}
}

func (s strategy) EvictionName() string {
	if s.cfg.Policy == Hybrid {
		return s.cfg.Eviction.String()
	}
	return ""
}
