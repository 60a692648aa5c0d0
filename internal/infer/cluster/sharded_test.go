package cluster

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/cluster.golden instead of comparing")

// clusterGolden holds render(Run(cfg)) for every pinned config, one
// "== name" section each. Regenerate after an intentional model change
// with:
//
//	go test ./internal/infer/cluster -run 'Sharded' -update
var clusterGolden = filepath.Join("testdata", "cluster.golden")

// readGolden splits the golden file into its named sections, in file
// order.
func readGolden(t *testing.T) (names []string, secs map[string]string) {
	t.Helper()
	secs = map[string]string{}
	data, err := os.ReadFile(clusterGolden)
	if err != nil {
		if *updateGolden && os.IsNotExist(err) {
			return nil, secs
		}
		t.Fatalf("%v (run with -update to create it)", err)
	}
	for _, sec := range strings.Split(string(data), "== ")[1:] {
		name, body, _ := strings.Cut(sec, "\n")
		names = append(names, name)
		secs[name] = body
	}
	return names, secs
}

// checkGolden compares got with the golden section name, byte for byte,
// or rewrites that section under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	names, secs := readGolden(t)
	if *updateGolden {
		if _, ok := secs[name]; !ok {
			names = append(names, name)
		}
		secs[name] = got
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "== %s\n%s", n, secs[n])
		}
		if err := os.WriteFile(clusterGolden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, ok := secs[name]
	if !ok {
		t.Fatalf("%s has no section %q (run with -update to add it)", clusterGolden, name)
	}
	if got != want {
		t.Fatalf("%s rendered differently from %s:\n--- golden ---\n%s--- got ---\n%s",
			name, clusterGolden, want, got)
	}
}

// TestShardedByteIdentity pins the rendered metrics of the partitioned
// run for each oversubscription regime and router: cross-shard messages
// merge by (timestamp, source shard, source sequence), so the bytes are
// fixed by the Config alone.
func TestShardedByteIdentity(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"ample", Config{Seed: 11, Replicas: 4, Requests: 48,
			LocalBlocks: 64, SharedBlocks: 256}},
		{"oversub", Config{Seed: 11, Replicas: 4, Requests: 48,
			RatePerSec: 400_000, LocalBlocks: 4, SharedBlocks: 24}},
		{"tiny-shared", Config{Seed: 21, Replicas: 4, Requests: 32,
			RatePerSec: 400_000, LocalBlocks: 1, SharedBlocks: 8}},
		{"least-loaded", Config{Seed: 5, Replicas: 4, Requests: 64,
			RatePerSec: 400_000, LocalBlocks: 4, SharedBlocks: 24,
			Router: NewLeastLoaded()}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, render(Run(tc.cfg)))
		})
	}
}

// TestShardedStressCrossShardOrdering hammers the cross-shard merge
// path: a high arrival rate over a tiny shared pool makes every decode
// step exchange admit/bundle/reply messages while many same-instant
// fabric completions land at the hub. Several seeds, each pinned.
func TestShardedStressCrossShardOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep")
	}
	for _, seed := range []int64{1, 7, 23, 101} {
		cfg := Config{
			Seed: seed, Replicas: 4, Expanders: 2, Requests: 96,
			RatePerSec: 1_000_000, LocalBlocks: 2, SharedBlocks: 16,
			MaxBatch: 8,
		}
		checkGolden(t, fmt.Sprintf("stress-seed%d", seed), render(Run(cfg)))
	}
}

// TestShardPartitionShape pins the cluster's partition: the hub shard
// owns the switch and expanders, each replica host its own shard, and
// every cross-shard distance is the calibrated link latency (hosts are
// two hops apart through the hub).
func TestShardPartitionShape(t *testing.T) {
	c := New(Config{Replicas: 3, Expanders: 2})
	ss := c.ss
	if got := ss.NumShards(); got != 4 {
		t.Fatalf("NumShards = %d, want 4 (hub + 3 replicas)", got)
	}
	if c.hubShard != 0 {
		t.Fatalf("hub shard = %d, want 0", c.hubShard)
	}
	hub := ss.Shard(0).Nodes()
	if len(hub) != 3 { // sw0 + x0 + x1
		t.Fatalf("hub owns %v, want switch plus both expanders", hub)
	}
	for i, r := range c.reps {
		if got := ss.NodeShard(r.hostID); got != i+1 {
			t.Fatalf("host %s on shard %d, want %d", r.hostID, got, i+1)
		}
	}
	oneWay := ss.Dist(0, 1)
	if oneWay <= 0 {
		t.Fatalf("hub→replica distance %v, want positive lookahead", oneWay)
	}
	if got := ss.Dist(1, 2); got != 2*oneWay {
		t.Fatalf("replica→replica distance %v, want %v (two hops via hub)", got, 2*oneWay)
	}
}
