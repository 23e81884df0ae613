package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeCache is an in-memory sweep.Cache with call counting and an
// injectable Put failure.
type fakeCache struct {
	mu     sync.Mutex
	m      map[string]Metrics
	gets   atomic.Int64
	puts   atomic.Int64
	putErr error
}

func newFakeCache() *fakeCache { return &fakeCache{m: map[string]Metrics{}} }

func (c *fakeCache) Get(s Scenario) (Metrics, bool) {
	c.gets.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.m[s.ID()]
	return m, ok
}

func (c *fakeCache) Put(s Scenario, m Metrics) error {
	c.puts.Add(1)
	if c.putErr != nil {
		return c.putErr
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[s.ID()] = m
	return nil
}

func cacheGrid() []Scenario {
	return Grid{
		Machines: []string{"a", "b"},
		Modes:    []Mode{{Name: "m1"}, {Name: "m2"}},
	}.Expand()
}

// runCached executes the cache grid on a fresh engine over the cache.
func runCached(cache Cache, run Runner) Campaign {
	eng := NewEngine(0, run)
	eng.Cache = cache
	return eng.Run(context.Background(), cacheGrid(), nil)
}

func countingRunner(calls *atomic.Int64) Runner {
	return func(_ context.Context, s Scenario) (Metrics, error) {
		calls.Add(1)
		var m Metrics
		m.Add("v", float64(len(s.Machine)+len(s.Mode.Name)))
		return m, nil
	}
}

// TestCacheTierMakesCampaignsResumable is the heart of resumability: a
// fresh engine (fresh process) backed by a warm cache must complete the
// whole campaign without one runner invocation, and produce the same
// results.
func TestCacheTierMakesCampaignsResumable(t *testing.T) {
	cache := newFakeCache()
	var cold atomic.Int64
	c1 := runCached(cache, countingRunner(&cold))
	if err := c1.Err(); err != nil {
		t.Fatal(err)
	}
	if cold.Load() != 4 {
		t.Fatalf("cold run executed %d scenarios, want 4", cold.Load())
	}
	if cache.puts.Load() != 4 {
		t.Fatalf("cold run wrote %d cache entries, want 4", cache.puts.Load())
	}

	var warm atomic.Int64
	c2 := runCached(cache, countingRunner(&warm))
	if err := c2.Err(); err != nil {
		t.Fatal(err)
	}
	if warm.Load() != 0 {
		t.Fatalf("warm run executed %d scenarios, want 0", warm.Load())
	}
	if len(c1.Results) != len(c2.Results) {
		t.Fatalf("result counts differ")
	}
	for i := range c1.Results {
		if !c2.Results[i].Cached {
			t.Errorf("warm result %d not marked Cached", i)
		}
		if fmt.Sprint(c1.Results[i].Metrics) != fmt.Sprint(c2.Results[i].Metrics) {
			t.Errorf("warm result %d metrics differ", i)
		}
	}
	// Warm hits must not be written back (Put stays at 4).
	if cache.puts.Load() != 4 {
		t.Fatalf("warm run wrote %d extra cache entries", cache.puts.Load()-4)
	}
}

// TestMemoizerShadowsCacheTier: within one engine, a repeated campaign
// is served by the in-memory tier without consulting the persistent one
// again.
func TestMemoizerShadowsCacheTier(t *testing.T) {
	cache := newFakeCache()
	var calls atomic.Int64
	eng := NewEngine(0, countingRunner(&calls))
	eng.Cache = cache
	eng.Run(context.Background(), cacheGrid(), nil)
	probes := cache.gets.Load()
	eng.Run(context.Background(), cacheGrid(), nil)
	if calls.Load() != 4 {
		t.Fatalf("re-run executed %d fresh scenarios, want 0 extra (4 total)", calls.Load())
	}
	if cache.gets.Load() != probes {
		t.Fatalf("re-run probed the persistent tier %d more times; memoizer should shadow it",
			cache.gets.Load()-probes)
	}
}

// TestCachePutErrorsAggregate: persistence failures must not fail
// scenarios, only surface on Campaign.CacheErr.
func TestCachePutErrorsAggregate(t *testing.T) {
	cache := newFakeCache()
	cache.putErr = errors.New("disk full")
	var calls atomic.Int64
	c := runCached(cache, countingRunner(&calls))
	if err := c.Err(); err != nil {
		t.Fatalf("scenario results polluted by cache failure: %v", err)
	}
	if c.CacheErr == nil || !errors.Is(c.CacheErr, cache.putErr) {
		t.Fatalf("CacheErr = %v, want aggregation of %v", c.CacheErr, cache.putErr)
	}
}

// TestFailedScenariosNotPersisted: errors stay out of the durable tier
// so a resumed campaign retries them.
func TestFailedScenariosNotPersisted(t *testing.T) {
	cache := newFakeCache()
	boom := errors.New("boom")
	c := runCached(cache, func(_ context.Context, s Scenario) (Metrics, error) {
		if s.Machine == "a" {
			return nil, boom
		}
		var m Metrics
		m.Add("v", 1)
		return m, nil
	})
	if c.Err() == nil {
		t.Fatal("campaign with failures reported success")
	}
	if cache.puts.Load() != 2 {
		t.Fatalf("%d cache writes, want 2 (failures must not persist)", cache.puts.Load())
	}
	// The retry: failed scenarios re-execute, successes come warm.
	var retries atomic.Int64
	c2 := runCached(cache, func(context.Context, Scenario) (Metrics, error) {
		retries.Add(1)
		var m Metrics
		m.Add("v", 1)
		return m, nil
	})
	if err := c2.Err(); err != nil {
		t.Fatal(err)
	}
	if retries.Load() != 2 {
		t.Fatalf("resume executed %d scenarios, want exactly the 2 failed ones", retries.Load())
	}
}
