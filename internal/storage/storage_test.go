package storage

import "testing"

func TestParsePolicy(t *testing.T) {
	cases := map[string]Policy{
		"":            Distributed,
		"distributed": Distributed,
		"channels":    Distributed,
		"Channel":     Distributed,
		"dedicated":   Dedicated,
		"unit":        Dedicated,
		"hybrid":      Hybrid,
		"cache":       Hybrid,
		" Hybrid ":    Hybrid,
	}
	for in, want := range cases {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePolicy("quantum"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

func TestParseEviction(t *testing.T) {
	cases := map[string]Eviction{
		"":                    LRU,
		"lru":                 LRU,
		"enf":                 EarliestNextFetch,
		"next-fetch":          EarliestNextFetch,
		"Earliest-Next-Fetch": EarliestNextFetch,
	}
	for in, want := range cases {
		got, err := ParseEviction(in)
		if err != nil || got != want {
			t.Errorf("ParseEviction(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseEviction("random"); err == nil {
		t.Error("ParseEviction accepted an unknown policy")
	}
}

func TestConfigKey(t *testing.T) {
	cases := []struct {
		cfg Config
		key string
	}{
		{Config{}, "distributed"},
		{Config{Policy: Dedicated}, "dedicated"},
		{Config{Policy: Hybrid}, "hybrid:2:lru"},
		{Config{Policy: Hybrid, CacheSlots: 1, Eviction: EarliestNextFetch}, "hybrid:1:earliest-next-fetch"},
		{Config{Policy: Hybrid, CacheSlots: 5}, "hybrid:5:lru"},
	}
	seen := map[string]bool{}
	for _, c := range cases {
		got := c.cfg.Key()
		if got != c.key {
			t.Errorf("Config%+v.Key() = %q, want %q", c.cfg, got, c.key)
		}
		seen[got] = true
	}
	// Keys discriminate: every distinct configuration must produce a
	// distinct cache-key spelling, or strategies would collide in the
	// service's schedule cache.
	if len(seen) != len(cases) {
		t.Errorf("%d configs produced only %d distinct keys", len(cases), len(seen))
	}
}

func TestConfigValidate(t *testing.T) {
	valid := []Config{
		{},
		{Policy: Dedicated},
		{Policy: Hybrid, CacheSlots: 3, Eviction: EarliestNextFetch},
	}
	for _, c := range valid {
		if err := c.Validate(); err != nil {
			t.Errorf("Config%+v.Validate() = %v, want nil", c, err)
		}
	}
	invalid := []Config{
		{Policy: Policy(7)},
		{Policy: Hybrid, CacheSlots: -1},
		{Eviction: Eviction(5)},
	}
	for _, c := range invalid {
		if err := c.Validate(); err == nil {
			t.Errorf("Config%+v.Validate() accepted an invalid config", c)
		}
	}
}

// TestStrategyContracts pins the per-policy surface both schedulers and the
// architecture stage rely on: name, port serialization and channel slot
// bounds.
func TestStrategyContracts(t *testing.T) {
	cases := []struct {
		cfg        Config
		name       string
		serialized bool
		slots      int
	}{
		{Config{}, "distributed", false, -1},
		{Config{Policy: Policy(7)}, "distributed", false, -1},
		{Config{Policy: Dedicated}, "dedicated", true, 0},
		{Config{Policy: Hybrid}, "hybrid", true, DefaultCacheSlots},
		{Config{Policy: Hybrid, CacheSlots: 4}, "hybrid", true, 4},
	}
	for _, c := range cases {
		s := New(c.cfg)
		if s.Name() != c.name {
			t.Errorf("%s: Name() = %q", c.cfg.Key(), s.Name())
		}
		if s.Serialized() != c.serialized {
			t.Errorf("%s: Serialized() = %v, want %v", c.cfg.Key(), s.Serialized(), c.serialized)
		}
		if s.ChannelSlots() != c.slots {
			t.Errorf("%s: ChannelSlots() = %d, want %d", c.cfg.Key(), s.ChannelSlots(), c.slots)
		}
	}
}

func TestEvictionNames(t *testing.T) {
	if got := New(Config{Policy: Hybrid, Eviction: EarliestNextFetch}).EvictionName(); got != "earliest-next-fetch" {
		t.Errorf("hybrid EvictionName() = %q", got)
	}
	if got := New(Config{Policy: Dedicated}).EvictionName(); got != "" {
		t.Errorf("dedicated EvictionName() = %q, want empty (nothing to evict)", got)
	}
}
