package service

import (
	"encoding/json"
	"testing"
)

func entry(key, payload string) *CacheEntry {
	return &CacheEntry{Key: key, Workload: "w", SimCycles: 1, Result: json.RawMessage(payload)}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(entry("a", `"a"`))
	c.Put(entry("b", `"b"`))
	c.Get("a") // a becomes MRU; b is now the eviction candidate
	c.Put(entry("c", `"c"`))

	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("fresh entry c missing")
	}
	if _, _, ev := c.Counters(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
}

// TestCacheKeepsFirstBytes: a duplicate Put must not replace the stored
// result — the first bytes are the canonical copy every future hit
// serves, which is what makes repeat responses byte-identical.
func TestCacheKeepsFirstBytes(t *testing.T) {
	c := NewCache(4)
	c.Put(entry("k", `{"v":1}`))
	c.Put(entry("k", `{"v":1}`)) // deterministic duplicate
	got, ok := c.Get("k")
	if !ok {
		t.Fatal("entry missing")
	}
	if string(got.Result) != `{"v":1}` {
		t.Fatalf("stored bytes changed: %s", got.Result)
	}
	if c.Len() != 1 {
		t.Fatalf("duplicate key grew the cache to %d", c.Len())
	}
}
