package serve

import (
	"fmt"
	"testing"

	"github.com/climate-rca/rca/internal/lru"
)

func rec(key string) *Outcome { return &Outcome{Fingerprint: key, Name: key} }

// newStore builds the outcome store the way New does.
func newStore(capacity int) *lru.Cache[string, *Outcome] {
	return lru.New[string, *Outcome](capacity)
}

func TestStoreLRUEviction(t *testing.T) {
	s := newStore(2)
	s.Put("a", rec("a"))
	s.Put("b", rec("b"))
	if _, ok := s.Get("a"); !ok { // bump a → b is now least recent
		t.Fatal("a missing")
	}
	s.Put("c", rec("c"))
	if _, ok := s.Get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for _, k := range []string{"a", "c"} {
		if out, ok := s.Get(k); !ok || out.Fingerprint != k {
			t.Fatalf("%s missing after eviction round", k)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
}

func TestStoreRefreshKeepsSingleEntry(t *testing.T) {
	s := newStore(2)
	s.Put("a", rec("a"))
	s.Put("a", &Outcome{Fingerprint: "a", Name: "a2"})
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1 after refresh", s.Len())
	}
	out, ok := s.Get("a")
	if !ok || out.Name != "a2" {
		t.Fatalf("refresh lost the newer record: %+v", out)
	}
}

func TestStoreManyEvictionsStayBounded(t *testing.T) {
	s := newStore(8)
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("k%d", i)
		s.Put(k, rec(k))
	}
	if s.Len() != 8 {
		t.Fatalf("len = %d, want 8", s.Len())
	}
	// The eight most recent survive.
	for i := 92; i < 100; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Fatalf("recent key k%d evicted", i)
		}
	}
}
