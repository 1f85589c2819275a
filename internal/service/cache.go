package service

import (
	"container/list"
	"fmt"

	"flowsyn/internal/core"
)

// lruCache is a bounded map with least-recently-used eviction. It is not
// concurrency-safe; the Solver guards it with its mutex.
type lruCache struct {
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type lruItem struct {
	key string
	val any
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, capacity),
		order:   list.New(),
	}
}

func (c *lruCache) get(key string) (any, bool) {
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem).val, true
}

func (c *lruCache) put(key string, val any) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruItem).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruItem{key: key, val: val})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruItem).key)
	}
}

func (c *lruCache) len() int { return c.order.Len() }

// scheduleKey identifies a scheduling-and-binding solve: the canonical assay
// fingerprint plus exactly the options the schedule depends on. Grid, IO
// modeling and verification are deliberately absent — that independence is
// what lets a grid sweep share one schedule.
// opts must be normalized (core.Options.Normalized) so defaults key
// identically to their explicit values.
func scheduleKey(fingerprint string, opts core.Options) string {
	return fmt.Sprintf("sched|%s|d%d|u%d|m%d|e%d|tl%d|st:%s",
		fingerprint, opts.Devices, opts.Transport, opts.Mode, opts.Engine, opts.ILPTimeLimit,
		opts.Storage.Key())
}

// resultKey identifies a complete synthesis: the schedule key plus every
// option the later stages consume.
func resultKey(fingerprint string, opts core.Options) string {
	return fmt.Sprintf("%s|g%dx%d|io%t|v%t",
		scheduleKey(fingerprint, opts),
		opts.GridRows, opts.GridCols, opts.ModelIO, opts.Verify)
}
