package server

import (
	"fmt"
	"testing"
	"time"
)

// Contention benchmarks: run with -cpu 1,2,4,8 to see how the hot read
// paths behave as GOMAXPROCS grows. Registry.Get and Cache.Get are on the
// critical path of every count/profile request, so they must not serialize
// readers behind a single lock. Results are recorded pre/post the
// shard-everything refactor in BENCH_concurrency.json.

// benchRegistry returns a registry preloaded with n graphs named g0..g{n-1}.
func benchRegistry(b *testing.B, n int) (*Registry, []string) {
	b.Helper()
	r := NewRegistry()
	g := testGraph(b, "0 1 2\n0 1 3\n2 3\n")
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("g%d", i)
		r.Load(names[i], g)
	}
	return r, names
}

// BenchmarkRegistryContention measures parallel Registry.Get throughput over
// a fixed set of graphs: the every-request lookup that must never contend.
func BenchmarkRegistryContention(b *testing.B) {
	r, names := benchRegistry(b, 64)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			e, ok := r.Get(names[i&63])
			if !ok || e == nil {
				b.Fatal("registered graph missing")
			}
			i++
		}
	})
}

// BenchmarkRegistryContentionMixed measures Get throughput while a low rate
// of Load/Delete churn runs alongside — the production shape where uploads
// trickle in under a heavy read load.
func BenchmarkRegistryContentionMixed(b *testing.B) {
	r, names := benchRegistry(b, 64)
	g := testGraph(b, "0 1 2\n0 1 3\n2 3\n")
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i&1023 == 1023 {
				r.Load(names[i&63], g)
			} else {
				r.Get(names[i&63])
			}
			i++
		}
	})
}

// BenchmarkCacheContention measures parallel cache-hit throughput across
// many graphs' keys: the path a repeated query takes, which a global cache
// mutex serializes.
func BenchmarkCacheContention(b *testing.B) {
	c := NewCache(4096)
	const graphs, perGraph = 64, 4
	keys := make([]string, 0, graphs*perGraph)
	for gi := 0; gi < graphs; gi++ {
		for k := 0; k < perGraph; k++ {
			key := fmt.Sprintf("count|g%d#1|edge-sample|s=%d|seed=7", gi, 100+k)
			c.PutCost(key, k, 0, time.Millisecond)
			keys = append(keys, key)
		}
	}
	mask := len(keys) - 1 // graphs*perGraph is a power of two
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, ok := c.Get(keys[i&mask]); !ok {
				b.Fatal("cache entry missing")
			}
			i++
		}
	})
}

// BenchmarkCacheContentionMixed measures hit throughput with ~3% writes
// mixed in, the shape of a warm cache absorbing new sampled results.
func BenchmarkCacheContentionMixed(b *testing.B) {
	c := NewCache(4096)
	const graphs, perGraph = 64, 4
	keys := make([]string, 0, graphs*perGraph)
	for gi := 0; gi < graphs; gi++ {
		for k := 0; k < perGraph; k++ {
			key := fmt.Sprintf("count|g%d#1|edge-sample|s=%d|seed=7", gi, 100+k)
			c.PutCost(key, k, 0, time.Millisecond)
			keys = append(keys, key)
		}
	}
	mask := len(keys) - 1
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if i&31 == 31 {
				c.PutCost(keys[i&mask], i, 0, time.Millisecond)
			} else {
				c.Get(keys[i&mask])
			}
			i++
		}
	})
}
