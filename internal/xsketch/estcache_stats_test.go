package xsketch

import (
	"sync"
	"testing"

	"xsketch/internal/twig"
	"xsketch/internal/xmltree"
)

// TestEstimatorStatsGeneration pins the mutation-epoch semantics: the
// generation starts at zero and advances by exactly one per invalidation,
// whichever mutator triggers it.
func TestEstimatorStatsGeneration(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	g0 := sk.generation()
	sk.invalidateEstimatorCache()
	if g1 := sk.generation(); g1 != g0+1 {
		t.Fatalf("generation after one invalidation = %d, want %d", g1, g0+1)
	}
	if !sk.SetBuckets(sk.Syn.NodeOf(sk.Syn.Doc.Root()), 2) {
		t.Fatal("SetBuckets on root synopsis node failed")
	}
	if g2 := sk.generation(); g2 != g0+2 {
		t.Fatalf("generation after SetBuckets = %d, want %d", g2, g0+2)
	}
}

// TestEstimatorStatsRaceStress races stats pollers against estimation and
// against RebuildNode: every poller must see hits, misses and the
// generation only ever grow, and the generation must end exactly one step
// per rebuild ahead. Phase one races estimators against pollers; phase
// two races a mutator (which holds the required exclusive access versus
// estimation, but not versus pollers) against pollers. Meaningful under
// -race.
func TestEstimatorStatsRaceStress(t *testing.T) {
	sk := New(xmltree.Bibliography(), exactConfig())
	q := twig.MustParse("t0 in author, t1 in t0//title, t2 in t0/name")

	poll := func(stop <-chan struct{}, wg *sync.WaitGroup) {
		defer wg.Done()
		prev, prevGen := sk.EstimatorStats(), sk.generation()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st, gen := sk.EstimatorStats(), sk.generation()
			if st.Hits < prev.Hits || st.Misses < prev.Misses || gen < prevGen {
				t.Errorf("counters went backwards: %+v gen %d -> %+v gen %d", prev, prevGen, st, gen)
				return
			}
			prev, prevGen = st, gen
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
	if st := sk.EstimatorStats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("concurrent estimation recorded %+v, want hits and misses", st)
	}

	// Phase 2: mutation (exclusive of estimation, concurrent with pollers).
	stop = make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go poll(stop, &wg)
	}
	const rebuilds = 200
	gen := sk.generation()
	root := sk.Syn.NodeOf(sk.Syn.Doc.Root())
	for j := 0; j < rebuilds; j++ {
		sk.EstimateQuery(q) // repopulate so invalidation has entries to drop
		sk.RebuildNode(root)
	}
	close(stop)
	wg.Wait()
	if g := sk.generation(); g != gen+rebuilds {
		t.Fatalf("generation after %d rebuilds = %d, want %d", rebuilds, g, gen+rebuilds)
	}
}

// TestEstimatorStatsSnapshot checks that the counters advance with
// estimation and that HitRate agrees with them.
func TestEstimatorStatsSnapshot(t *testing.T) {
	sk := bibSketch(t)
	before := sk.EstimatorStats()
	q := twig.MustParse("t0 in author, t1 in t0/name")
	sk.EstimateQuery(q)
	sk.EstimateQuery(q)
	after := sk.EstimatorStats()
	if after.Misses <= before.Misses || after.Hits <= before.Hits {
		t.Fatalf("snapshot did not advance: before %+v after %+v", before, after)
	}
	want := float64(after.Hits) / float64(after.Hits+after.Misses)
	if hr := after.HitRate(); hr != want || hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate %v, want %v in (0,1)", hr, want)
	}
	if (EstimatorStats{}).HitRate() != 0 {
		t.Fatal("zero-lookup hit rate should be 0")
	}
}
