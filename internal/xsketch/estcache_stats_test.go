package xsketch

import (
	"sync"
	"testing"

	"xsketch/internal/twig"
	"xsketch/internal/xmltree"
)

// TestEstimatorStatsGeneration pins the mutation-epoch semantics: the
// generation starts at zero, is always even in a snapshot, and advances by
// exactly two per invalidation.
func TestEstimatorStatsGeneration(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	g0 := sk.EstimatorStats().Generation
	if g0%2 != 0 {
		t.Fatalf("initial generation %d is odd", g0)
	}
	sk.InvalidateEstimatorCache()
	g1 := sk.EstimatorStats().Generation
	if g1 != g0+2 {
		t.Fatalf("generation after one invalidation = %d, want %d", g1, g0+2)
	}
	if !sk.SetBuckets(sk.Syn.NodeOf(sk.Syn.Doc.Root()), 2) {
		t.Fatal("SetBuckets on root synopsis node failed")
	}
	if g2 := sk.EstimatorStats().Generation; g2 <= g1 || g2%2 != 0 {
		t.Fatalf("generation after SetBuckets = %d, want even > %d", g2, g1)
	}
}

// TestEstimatorStatsSubClamps asserts Sub never produces a wrapped uint64:
// deltas against a newer (or foreign) snapshot clamp to zero, and the
// newer generation is carried through.
func TestEstimatorStatsSubClamps(t *testing.T) {
	cur := EstimatorStats{Hits: 5, Misses: 2, Evictions: 1, Generation: 4}
	prev := EstimatorStats{Hits: 9, Misses: 1, Evictions: 3, Generation: 2}
	d := cur.Sub(prev)
	if d.Hits != 0 || d.Misses != 1 || d.Evictions != 0 {
		t.Fatalf("clamped delta = %+v", d)
	}
	if d.Generation != 4 {
		t.Fatalf("delta generation = %d, want the newer snapshot's 4", d.Generation)
	}
}

// TestEstimatorStatsRaceStress is the satellite-3 regression test: stats
// pollers must read consistent, monotonic snapshots while estimation runs
// and while the sketch is mutated via RebuildNode. Phase one races
// estimators against snapshotters; phase two races a mutator (which holds
// the required exclusive access versus estimation, but not versus pollers)
// against snapshotters. Meaningful under -race; the invariants below fail
// on torn generation/eviction pairings even without it.
func TestEstimatorStatsRaceStress(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	view := sk.EstimatorCache()
	q := twig.MustParse("t0 in author, t1 in t0//title, t2 in t0/name")

	poll := func(stop <-chan struct{}, wg *sync.WaitGroup) {
		defer wg.Done()
		prev := view.Snapshot()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := view.Snapshot()
			if st.Generation%2 != 0 {
				t.Errorf("snapshot saw odd generation %d", st.Generation)
				return
			}
			if st.Hits < prev.Hits || st.Misses < prev.Misses || st.Evictions < prev.Evictions || st.Generation < prev.Generation {
				t.Errorf("counters went backwards: %+v -> %+v", prev, st)
				return
			}
			d := st.Sub(prev)
			if d.Hits > st.Hits || d.Misses > st.Misses {
				t.Errorf("delta exceeds cumulative total: %+v vs %+v", d, st)
				return
			}
			prev = st
		}
	}

	// Phase 1: concurrent estimation vs. pollers.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go poll(stop, &wg)
	}
	var est sync.WaitGroup
	for i := 0; i < 4; i++ {
		est.Add(1)
		go func() {
			defer est.Done()
			for j := 0; j < 50; j++ {
				sk.EstimateQuery(q)
			}
		}()
	}
	est.Wait()
	close(stop)
	wg.Wait()

	// Phase 2: mutation (exclusive of estimation, concurrent with pollers).
	stop = make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go poll(stop, &wg)
	}
	root := sk.Syn.NodeOf(sk.Syn.Doc.Root())
	for j := 0; j < 200; j++ {
		sk.EstimateQuery(q) // repopulate so invalidation has entries to evict
		sk.RebuildNode(root)
	}
	close(stop)
	wg.Wait()
}

func TestEstimatorCacheViewSnapshot(t *testing.T) {
	sk := bibSketch(t)
	view := sk.EstimatorCache()
	before := view.Snapshot()
	q := twig.MustParse("t0 in author, t1 in t0/name")
	sk.EstimateQuery(q)
	sk.EstimateQuery(q)
	after := view.Snapshot()
	if after.Misses <= before.Misses || after.Hits <= before.Hits {
		t.Fatalf("snapshot did not advance: before %+v after %+v", before, after)
	}
	if got, want := after, sk.EstimatorStats(); got != want {
		t.Fatalf("view snapshot %+v != EstimatorStats %+v", got, want)
	}
	delta := after.Sub(before)
	if delta.Hits != after.Hits-before.Hits {
		t.Fatalf("Sub delta %+v", delta)
	}
	if hr := after.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate %v, want in (0,1)", hr)
	}
	if (EstimatorStats{}).HitRate() != 0 {
		t.Fatal("zero-lookup hit rate should be 0")
	}
	if n := after.Lookups(); n != after.Hits+after.Misses {
		t.Fatalf("Lookups = %d", n)
	}
}
