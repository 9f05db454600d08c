package lru

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestCache drives one cache per case through a script of operations
// ("add k v", "load k v", "get k", "pin k", "unpin k", "purge") and checks
// the resident entries (key=value, any order) and the pinned-key count.
func TestCache(t *testing.T) {
	cases := []struct {
		name   string
		cap    int
		ops    string
		want   string
		pinned int
	}{
		// "a" is read after "b" went in, so inserting "c" evicts "b".
		{"eviction-order", 2, "add a 1; add b 2; get a; add c 3", "a=1 c=3", 0},
		{"refresh", 2, "add a 1; add a 9", "a=9", 0},
		{"disabled", 0, "add a 1; load b 2", "", 0},
		{"disabled-negative", -1, "add a 1", "", 0},
		{"purge", 4, "add a 1; add b 2; purge; add c 3", "c=3", 0},
		{"first-insert-wins", 2, "load a 1; load a 2; add b 3; load b 4", "a=1 b=3", 0},
		// "a" is the least recently used entry, but pinned: "b" goes instead.
		{"pinned-survives-capacity", 2, "add a 1; pin a; add b 2; add c 3", "a=1 c=3", 1},
		{"pin-before-insert", 2, "pin a; add a 1; add b 2; add c 3", "a=1 c=3", 1},
		{"all-pinned-exceeds-capacity", 1, "pin a; pin b; add a 1; add b 2", "a=1 b=2", 2},
		{"unpin-refcounted", 1, "add a 1; pin a; pin a; unpin a; add b 2", "a=1", 1},
		{"unpin-releases-last-pin", 1, "add a 1; pin a; pin a; unpin a; unpin a; add b 2", "b=2", 0},
		{"purge-keeps-pins", 1, "pin a; add a 1; purge; add a 2; add b 3", "a=2", 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New[string, int](tc.cap)
			for _, op := range strings.Split(tc.ops, ";") {
				var verb, key string
				var val int
				fmt.Sscan(op, &verb, &key, &val)
				switch verb {
				case "add":
					c.Add(key, val)
				case "load":
					got := c.LoadOrAdd(key, val)
					if held, ok := c.Get(key); ok && got != held {
						t.Fatalf("%s: returned %d, cache holds %d", op, got, held)
					}
				case "get":
					c.Get(key)
				case "pin":
					c.Pin(key)
				case "unpin":
					c.Unpin(key)
				case "purge":
					c.Purge()
				default:
					t.Fatalf("bad op %q", op)
				}
			}
			var got []string
			for _, k := range []string{"a", "b", "c"} {
				if v, ok := c.Get(k); ok {
					got = append(got, fmt.Sprintf("%s=%d", k, v))
				}
			}
			sort.Strings(got)
			if s := strings.Join(got, " "); s != tc.want {
				t.Errorf("resident %q, want %q", s, tc.want)
			}
			if c.Len() != len(got) {
				t.Errorf("Len %d, but %d entries resident", c.Len(), len(got))
			}
			if c.Pinned() != tc.pinned {
				t.Errorf("Pinned %d, want %d", c.Pinned(), tc.pinned)
			}
		})
	}
}

// TestCacheConcurrent mixes every operation from many goroutines on a
// cache far below the working set; under -race it pins the locking. Pins
// are symmetric, so none may survive, and unpinned eviction keeps Len at
// capacity.
func TestCacheConcurrent(t *testing.T) {
	c := New[int, int](2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 5
				c.Pin(k)
				if v := c.LoadOrAdd(k, k); v != k {
					t.Errorf("key %d holds %d", k, v)
				}
				c.Add(k, k)
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("key %d holds %d", k, v)
				}
				c.Unpin(k)
			}
		}(g)
	}
	wg.Wait()
	if c.Pinned() != 0 {
		t.Fatalf("%d pins leaked", c.Pinned())
	}
	c.Add(-1, -1) // eviction is lazy: the next insert trims to capacity
	if c.Len() != 2 {
		t.Fatalf("Len %d, want 2", c.Len())
	}
}
