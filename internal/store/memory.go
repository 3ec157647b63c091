package store

import (
	"container/list"
	"sync"
)

// Memory is a content-addressed LRU of records — the per-node front
// tier. Values are stored whole (the response bytes are shared, not
// copied), so a hit replays the original response byte-identically.
type Memory struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // front = most recently used
	m      map[string]*list.Element
	closed bool
}

type memEntry struct {
	key string
	rec Record
}

// NewMemory returns an LRU tier bounded to max records. A max <= 0
// disables the tier: every Get misses and every Put is dropped (it
// still satisfies Tier, so a disabled cache needs no special-casing).
func NewMemory(max int) *Memory {
	return &Memory{max: max, ll: list.New(), m: make(map[string]*list.Element)}
}

// Get returns the record stored under key, refreshing its recency.
func (c *Memory) Get(key string) (Record, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok || c.closed {
		return Record{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*memEntry).rec, true
}

// Put stores a record, evicting the least recently used entry when the
// tier is full.
func (c *Memory) Put(key string, rec Record) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*memEntry).rec = rec
		return
	}
	c.m[key] = c.ll.PushFront(&memEntry{key: key, rec: rec})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*memEntry).key)
	}
}

// Len reports the number of cached records.
func (c *Memory) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0
	}
	return c.ll.Len()
}

// Close empties the tier; subsequent Gets miss and Puts are dropped.
func (c *Memory) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.ll.Init()
	c.m = map[string]*list.Element{}
	return nil
}
