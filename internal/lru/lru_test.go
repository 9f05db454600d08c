package lru

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestCache drives one cache per case through a script of operations
// ("add k v", "load k v", "get k", "purge") and checks the resident
// entries (key=value, any order).
func TestCache(t *testing.T) {
	cases := []struct {
		name string
		cap  int
		ops  string
		want string
	}{
		// "a" is read after "b" went in, so inserting "c" evicts "b".
		{"eviction-order", 2, "add a 1; add b 2; get a; add c 3", "a=1 c=3"},
		{"refresh", 2, "add a 1; add a 9", "a=9"},
		{"disabled", 0, "add a 1; load b 2", ""},
		{"disabled-negative", -1, "add a 1", ""},
		{"purge", 4, "add a 1; add b 2; purge; add c 3", "c=3"},
		{"first-insert-wins", 2, "load a 1; load a 2; add b 3; load b 4", "a=1 b=3"},
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
		})
	}
}

// TestCacheConcurrent mixes every operation from many goroutines on a
// cache far below the working set; under -race it checks the locking, and
// eviction keeps Len at capacity.
func TestCacheConcurrent(t *testing.T) {
	c := New[int, int](2)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 5
				if v := c.LoadOrAdd(k, k); v != k {
					t.Errorf("key %d holds %d", k, v)
				}
				c.Add(k, k)
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("key %d holds %d", k, v)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() != 2 {
		t.Fatalf("Len %d, want 2", c.Len())
	}
}
