package lru

import (
	"sync"
	"testing"
)

// TestCapAndLeastRecentlyUsedEviction pins the size bound and the
// eviction order: a Get refreshes recency, so the entry evicted when
// the cache overflows is the one touched longest ago.
func TestCapAndLeastRecentlyUsedEviction(t *testing.T) {
	c := New[string, int](3)
	for i, k := range []string{"a", "b", "c"} {
		c.Add(k, i)
	}
	if _, ok := c.Get("a"); !ok { // order now a, c, b
		t.Fatal("a missing before overflow")
	}
	c.Add("d", 3) // evicts b
	if n := c.Len(); n != 3 {
		t.Fatalf("Len = %d after overflow, want 3", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived: the least recently used entry must be evicted")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted; only b should go", k)
		}
	}
	for i := 0; i < 100; i++ {
		c.Add(string(rune('e'+i)), i)
	}
	if n := c.Len(); n != 3 {
		t.Fatalf("Len = %d after 100 more adds, want 3", n)
	}
}

// TestAddKeepsFirstValue pins the shared-copy contract: adding a key
// already present returns (and keeps) the stored value and refreshes
// its recency.
func TestAddKeepsFirstValue(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	if got := c.Add("a", 99); got != 1 {
		t.Fatalf("Add over an existing key returned %d, want the stored 1", got)
	}
	c.Add("c", 3) // a was refreshed, so b goes
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived; re-adding a must refresh its recency")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
}

// TestConcurrentUse exercises the cache from several goroutines; run
// under -race it checks the locking.
func TestConcurrentUse(t *testing.T) {
	c := New[int, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (i * (g + 1)) % 40
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("Get(%d) = %d", k, v)
					return
				}
				c.Add(k, k)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 16 {
		t.Fatalf("Len = %d, want <= 16", n)
	}
}
