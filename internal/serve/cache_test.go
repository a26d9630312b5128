package serve

import (
	"bytes"
	"fmt"
	"testing"

	"hotgauge/internal/obs"
)

func TestCacheLRUEviction(t *testing.T) {
	reg := obs.NewRegistry()
	c := newResultCache(100, reg)

	pay := func(n int) []byte { return bytes.Repeat([]byte("x"), n) }
	c.Put("a", pay(40))
	c.Put("b", pay(40))
	if c.Len() != 2 || c.Bytes() != 80 {
		t.Fatalf("after 2 puts: len=%d bytes=%d", c.Len(), c.Bytes())
	}

	// Touch "a" so "b" is the LRU victim.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("c", pay(40)) // 120 > 100: evicts b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if got := reg.Counter(MetricCacheEvictions).Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if c.Bytes() != 80 {
		t.Fatalf("bytes = %d, want 80", c.Bytes())
	}
}

func TestCacheOversizedAndReplace(t *testing.T) {
	c := newResultCache(50, nil)
	c.Put("huge", make([]byte, 51))
	if c.Len() != 0 {
		t.Fatal("oversized payload must not be cached")
	}

	c.Put("k", []byte("12345"))
	c.Put("k", []byte("123456789"))
	if c.Len() != 1 || c.Bytes() != 9 {
		t.Fatalf("after replace: len=%d bytes=%d, want 1, 9", c.Len(), c.Bytes())
	}
	data, ok := c.Get("k")
	if !ok || string(data) != "123456789" {
		t.Fatalf("Get after replace = %q, %v", data, ok)
	}
}

// TestCacheCounters checks the LRU's footprint gauge, and that cache
// hits and misses are counted where the daemon decides them — once per
// run in a job's cache pass, the same with or without a result store —
// and never by reading a result back.
func TestCacheCounters(t *testing.T) {
	reg := obs.NewRegistry()
	c := newResultCache(1000, reg)
	c.Put("k", []byte("v"))
	if b := reg.Gauge(MetricCacheBytes).Value(); b != 1 {
		t.Fatalf("bytes gauge = %v, want 1", b)
	}

	for name, dataDir := range map[string]string{"in-memory": "", "durable": t.TempDir()} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			_, ts := newTestServer(t, Options{Registry: reg, DataDir: dataDir})
			first := submit(t, ts, tinySpec(7, 2))
			streamEvents(t, ts, first.ID)
			second := submit(t, ts, tinySpec(7, 2), tinySpec(14, 2))
			streamEvents(t, ts, second.ID)
			getBody(t, ts, "/jobs/"+first.ID+"/results/0")
			getBody(t, ts, "/jobs/"+second.ID+"/results")
			if h := reg.Counter(MetricCacheHits).Value(); h != 1 {
				t.Fatalf("hits = %d, want 1", h)
			}
			if m := reg.Counter(MetricCacheMisses).Value(); m != 2 {
				t.Fatalf("misses = %d, want 2", m)
			}
		})
	}
}

func TestCacheByteIdentity(t *testing.T) {
	c := newResultCache(1<<20, nil)
	orig := []byte(`{"x":1}`)
	c.Put("k", orig)
	for i := 0; i < 3; i++ {
		got, ok := c.Get("k")
		if !ok || !bytes.Equal(got, orig) {
			t.Fatalf("read %d: %q, %v", i, got, ok)
		}
	}
}

func TestCacheManyKeysStayWithinBudget(t *testing.T) {
	c := newResultCache(256, nil)
	for i := 0; i < 100; i++ {
		c.Put(fmt.Sprintf("k%d", i), make([]byte, 32))
		if c.Bytes() > 256 {
			t.Fatalf("budget exceeded: %d bytes after %d puts", c.Bytes(), i+1)
		}
	}
	if c.Len() != 8 {
		t.Fatalf("len = %d, want 8 (256/32)", c.Len())
	}
}
