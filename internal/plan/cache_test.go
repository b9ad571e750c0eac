package plan

import (
	"fmt"
	"sync"
	"testing"
)

func prog(canonical string, gen uint64) *Program {
	return &Program{Canonical: canonical, Generation: gen}
}

// TestCacheLookupInsert pins the basic key structure: canonical insert,
// alias hit, canonical promote with alias registration, and hit/miss
// accounting (hits = served lookups, misses = compilations).
func TestCacheLookupInsert(t *testing.T) {
	c := NewCache(4)
	if c.Lookup("q1", 0) != nil {
		t.Fatal("empty cache returned a program")
	}
	p := prog("for t0 in //a", 0)
	c.Insert(p, "t0 in //a")
	if got := c.Lookup("t0 in //a", 0); got != p {
		t.Fatal("alias lookup missed after insert")
	}
	if got := c.Promote("for t0 in //a", "for  t0 in //a-normalized", 0); got != p {
		t.Fatal("canonical promote missed")
	}
	if got := c.Lookup("for  t0 in //a-normalized", 0); got != p {
		t.Fatal("promoted alias did not register")
	}
	// The canonical spelling never gets an alias slot, so Lookup must fall
	// back to the canonical map — otherwise a canonically spelled query
	// reparses on every call (the regression behind the zero-alloc gate).
	if got := c.Lookup("for t0 in //a", 0); got != p {
		t.Fatal("canonical-text lookup missed")
	}
	st := c.Stats()
	if st.Hits != 4 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want 4 hits / 1 miss / size 1", st)
	}
}

// TestCacheGenerationInvalidation asserts a generation mismatch evicts the
// stale entry on either lookup path and never returns it.
func TestCacheGenerationInvalidation(t *testing.T) {
	c := NewCache(4)
	c.Insert(prog("q", 0), "alias-q")
	if c.Lookup("alias-q", 2) != nil {
		t.Fatal("stale entry returned via alias")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not evicted, len = %d", c.Len())
	}
	c.Insert(prog("q", 2), "")
	if c.Promote("q", "", 4) != nil {
		t.Fatal("stale entry returned via canonical form")
	}
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
	// A fresh entry at the new generation works again.
	p := prog("q", 4)
	c.Insert(p, "alias-q")
	if c.Lookup("alias-q", 4) != p {
		t.Fatal("fresh entry missed")
	}
}

// TestCacheLRUEviction asserts capacity eviction drops the least recently
// used entry and its aliases.
func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(2)
	c.Insert(prog("a", 0), "alias-a")
	c.Insert(prog("b", 0), "alias-b")
	if c.Lookup("alias-a", 0) == nil { // touch a so b is LRU
		t.Fatal("a missed")
	}
	c.Insert(prog("c", 0), "alias-c")
	if c.Lookup("alias-b", 0) != nil {
		t.Fatal("LRU entry b survived capacity eviction")
	}
	if c.Lookup("alias-a", 0) == nil || c.Lookup("alias-c", 0) == nil {
		t.Fatal("recently used entries were evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / size 2", st)
	}
}

// TestCacheFullInsertReusesEntry asserts a miss on a full cache reuses
// the entry it evicts: inserting a new program allocates nothing, the LRU
// entry and its alias are gone, and the new entry serves both of its keys.
func TestCacheFullInsertReusesEntry(t *testing.T) {
	const capacity = 4
	c := NewCache(capacity)
	var progs []*Program
	var aliases []string
	for i := 0; i < 2*capacity; i++ {
		progs = append(progs, prog(fmt.Sprintf("q%d", i), 0))
		aliases = append(aliases, fmt.Sprintf("alias-q%d", i))
	}
	for i := 0; i < capacity; i++ {
		c.Insert(progs[i], aliases[i])
	}
	next := capacity
	allocs := testing.AllocsPerRun(100, func() {
		c.Insert(progs[next%len(progs)], aliases[next%len(progs)])
		next++
	})
	if allocs != 0 {
		t.Fatalf("insert into a full cache made %v allocations, want 0", allocs)
	}
	last := (next - 1) % len(progs)
	evicted := (next - 1 - capacity) % len(progs)
	if c.Lookup(aliases[evicted], 0) != nil || c.Promote(progs[evicted].Canonical, "", 0) != nil {
		t.Fatalf("evicted entry %q still served", progs[evicted].Canonical)
	}
	if c.Lookup(aliases[last], 0) != progs[last] || c.Lookup(progs[last].Canonical, 0) != progs[last] {
		t.Fatalf("newest entry %q missed", progs[last].Canonical)
	}
	if st := c.Stats(); st.Size != capacity || st.Evictions != uint64(next-capacity) {
		t.Fatalf("stats = %+v, want size %d and %d evictions", st, capacity, next-capacity)
	}
}

// TestCacheAliasBound asserts per-entry aliases are capped: unbounded
// spellings of one query must not grow the alias map without bound.
func TestCacheAliasBound(t *testing.T) {
	c := NewCache(2)
	c.Insert(prog("q", 0), "")
	for i := 0; i < 5*aliasLimit; i++ {
		if c.Promote("q", fmt.Sprintf("spelling-%d", i), 0) == nil {
			t.Fatal("canonical promote missed")
		}
	}
	c.mu.Lock()
	aliases := len(c.aliases)
	c.mu.Unlock()
	if aliases > aliasLimit {
		t.Fatalf("alias map grew to %d entries, cap is %d", aliases, aliasLimit)
	}
	// Early spellings (within the cap) still hit; late ones fall back to
	// the canonical path but are never wrong.
	if c.Lookup("spelling-0", 0) == nil {
		t.Fatal("capped alias lost")
	}
	if c.Lookup(fmt.Sprintf("spelling-%d", 5*aliasLimit-1), 0) != nil {
		t.Fatal("over-cap spelling unexpectedly aliased")
	}
}

// TestCacheReplaceCleansAliases asserts replacing a canonical entry drops
// the old entry's aliases so they cannot resolve to a retired program.
func TestCacheReplaceCleansAliases(t *testing.T) {
	c := NewCache(4)
	c.Insert(prog("q", 0), "old-spelling")
	p2 := prog("q", 2)
	c.Insert(p2, "new-spelling")
	if got := c.Lookup("old-spelling", 2); got != nil {
		t.Fatal("old alias survived canonical replacement")
	}
	if got := c.Lookup("new-spelling", 2); got != p2 {
		t.Fatal("replacement entry missed")
	}
}

// TestCacheConcurrent hammers the cache from many goroutines (meaningful
// under -race): mixed lookups, inserts and generation bumps must never
// return a program whose generation mismatches the request.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache(8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				gen := uint64(i%3) * 2
				key := fmt.Sprintf("q%d", i%12)
				if p := c.Lookup(key, gen); p != nil && p.Generation != gen {
					t.Errorf("lookup returned generation %d for gen %d", p.Generation, gen)
					return
				}
				c.Insert(prog(key, gen), key)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}
