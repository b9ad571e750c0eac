package plan

import "sync"

// aliasLimit bounds the normalized-text aliases retained per cache entry.
// Aliases exist so common alternative spellings (extra whitespace, a "for"
// keyword) hit without reparsing; a query with unboundedly many spellings
// must not let the alias map grow without bound.
const aliasLimit = 8

// Stats reports the cumulative counters of a plan cache. Hits counts
// planned lookups served from the cache (by either key), Misses counts
// compilations, and Evictions counts entries dropped for capacity or
// staleness. Size is the current entry count.
type Stats struct {
	Hits, Misses, Evictions uint64
	Size                    int
}

// entry is one cached program with its LRU links and alias bookkeeping.
type entry struct {
	prog       *Program
	aliases    []string
	prev, next *entry
}

// Cache is a bounded LRU of compiled programs, keyed by the query's
// canonical form with a bounded set of normalized-text aliases per entry.
// Entries are tagged with the sketch generation they were compiled under;
// a lookup that finds a stale entry evicts it and reports a miss, so no
// plan compiled before a sketch mutation can ever be executed after it.
// All methods are safe for concurrent use, and the lookup path performs no
// allocations (map reads, pointer splices, counter increments).
type Cache struct {
	mu         sync.Mutex
	cap        int
	entries    map[string]*entry // canonical form -> entry
	aliases    map[string]*entry // normalized text -> entry
	head, tail *entry            // LRU order, head = most recent
	hits       uint64
	misses     uint64
	evictions  uint64
}

// NewCache returns an empty cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		entries: make(map[string]*entry),
		aliases: make(map[string]*entry),
	}
}

// Lookup returns the program cached under the normalized query text, or
// nil. The text is checked against the alias map and then the canonical
// map — a canonically spelled query never gets an alias slot (addAlias
// refuses it), so the fallback is what lets it hit without reparsing. A
// generation mismatch evicts the stale entry and misses; a hit refreshes
// LRU order and counts toward Stats.Hits. Failed lookups are not counted
// as misses here — the caller either promotes the canonical form (another
// hit path) or compiles, and Insert counts the compilation.
//
//lint:hotpath cache-hit lookup, zero allocations asserted by TestPlannedZeroAllocsOnHit
func (c *Cache) Lookup(text string, gen uint64) *Program {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.aliases[text]
	if e == nil {
		e = c.entries[text]
	}
	return c.take(e, gen)
}

// Promote returns the program cached under the canonical form, or nil,
// registering text as an additional alias on a hit. It is the second-
// chance lookup after an alias miss and a parse: a new spelling of an
// already-planned query hits here and shares the existing plan.
func (c *Cache) Promote(canonical, text string, gen uint64) *Program {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[canonical]
	p := c.take(e, gen)
	if p != nil && text != "" {
		c.addAlias(e, text)
	}
	return p
}

// Insert stores a freshly compiled program under its canonical form,
// optionally registering one normalized-text alias, and counts the
// compilation as a miss. Inserting over an existing canonical entry
// replaces it (the recompile-after-mutation path); on a full cache the
// least-recently-used entry is evicted. Either way the displaced entry,
// and its alias list, is reused for the new program, so a miss on a full
// cache allocates no entry.
func (c *Cache) Insert(p *Program, text string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses++
	e := c.entries[p.Canonical]
	if e == nil && len(c.entries) >= c.cap {
		e = c.tail
		c.evictions++
	}
	if e != nil {
		c.remove(e)
		clear(e.aliases)
		*e = entry{aliases: e.aliases[:0]}
	} else {
		e = new(entry)
	}
	e.prog = p
	c.entries[p.Canonical] = e
	c.pushFront(e)
	if text != "" {
		c.addAlias(e, text)
	}
}

// Stats samples the cumulative counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Size: len(c.entries)}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// take validates an entry against the current generation: a fresh entry is
// moved to the LRU front and counted as a hit; a stale one is evicted.
//
//lint:hotpath shared by Lookup and Promote on the hit path
func (c *Cache) take(e *entry, gen uint64) *Program {
	if e == nil {
		return nil
	}
	if e.prog.Generation != gen {
		c.remove(e)
		c.evictions++
		return nil
	}
	c.moveFront(e)
	c.hits++
	return e.prog
}

// addAlias registers text as an alias of e, bounded by aliasLimit. The
// canonical form itself never needs an alias slot.
func (c *Cache) addAlias(e *entry, text string) {
	if text == e.prog.Canonical || len(e.aliases) >= aliasLimit {
		return
	}
	if c.aliases[text] == e {
		return
	}
	c.aliases[text] = e
	e.aliases = append(e.aliases, text)
}

// remove unlinks an entry and drops its keys and aliases.
func (c *Cache) remove(e *entry) {
	delete(c.entries, e.prog.Canonical)
	for _, a := range e.aliases {
		if c.aliases[a] == e {
			delete(c.aliases, a)
		}
	}
	c.unlink(e)
}

func (c *Cache) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) pushFront(e *entry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) moveFront(e *entry) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
