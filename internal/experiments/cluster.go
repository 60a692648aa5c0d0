package experiments

import (
	"fmt"
	"io"

	"repro/internal/infer/cluster"
	"repro/internal/runner"
	"repro/internal/sim"
)

// The cluster section scales the infer question out: when N serving
// replicas share pooled Type-3 memory behind a CXL switch
// (internal/fabric Star topology), how do replica count, shared-pool
// pressure and request routing shape the serving metrics? Each scenario
// runs the full cluster model — routed open arrivals, per-replica
// continuous batching with reservation-based admission, every shared KV
// block riding the contended fabric — and the section reports the
// serving summary next to the per-replica breakdown and the per-link
// traffic that explains it: with ample local pools the fabric is silent;
// oversubscribed, the switch egress toward the expander queues visibly.

// ClusterConfig tunes the cluster section.
type ClusterConfig struct {
	// Reps scales the request count (Requests = Reps/2, clamped to
	// [12, 96]); 0 keeps the default of 48 requests per scenario.
	Reps int
	// Seed overrides the workload seed; 0 uses the job's derived seed.
	Seed int64
	// Shards is the worker cap for sharded PDES execution of each
	// cluster simulation (0 or 1 runs inline). A pure speed knob: rows
	// are byte-identical at every value, so it stays out of section
	// cache keys. Workers beyond 1 are recruited from the runner pool so
	// shard goroutines and job workers share one parallelism budget.
	Shards int
}

func (c ClusterConfig) requests() int {
	return InferConfig{Reps: c.Reps}.requests()
}

// clusterRate is the arrival rate every scenario serves: high enough
// that replicas queue and batches fill — contention is the object of
// study, and an idle cluster shows none.
const clusterRate = 400_000

// ClusterScenario is one cluster configuration of the section.
type ClusterScenario struct {
	// Name labels the rows.
	Name string
	// Replicas is the serving-host count.
	Replicas int
	// Router constructs the request router (routers are stateful and
	// single-use, so scenarios carry a constructor).
	Router func() cluster.Router
	// LocalBlocks/SharedBlocks size each replica's local pool and each
	// expander's shared pool.
	LocalBlocks, SharedBlocks int
}

// ClusterScenarios lists the compared configurations in presentation
// order: the replica-count sweep with ample local pools (the fabric
// stays quiet; scaling is pure), then the oversubscribed shared pool
// under each router (KV spills through the switch; routing policy now
// matters).
func ClusterScenarios() []ClusterScenario {
	ample := func(name string, n int) ClusterScenario {
		return ClusterScenario{Name: name, Replicas: n, Router: cluster.NewRoundRobin,
			LocalBlocks: 64, SharedBlocks: 256}
	}
	oversub := func(name string, r func() cluster.Router) ClusterScenario {
		return ClusterScenario{Name: name, Replicas: 4, Router: r,
			LocalBlocks: 4, SharedBlocks: 24}
	}
	return []ClusterScenario{
		ample("1r/ample", 1),
		ample("2r/ample", 2),
		ample("4r/ample", 4),
		oversub("4r/oversub/rr", cluster.NewRoundRobin),
		oversub("4r/oversub/least", cluster.NewLeastLoaded),
		oversub("4r/oversub/affinity", cluster.NewSessionAffinity),
	}
}

// ClusterReplicaRow is one replica's outcome within a scenario.
type ClusterReplicaRow struct {
	Replica  int
	Requests int
	TTFT     float64 // mean µs
	TPOT     float64 // mean µs/token
	LocalMB  float64
	SharedMB float64
}

// ClusterLinkRow is one fabric link's traffic within a scenario. AToB
// counts payload sent from the link's declared A endpoint toward B (in
// the Star topology host links are declared host-switch, expander links
// switch-expander).
type ClusterLinkRow struct {
	Link   string
	AToBMB float64
	BToAMB float64
}

// ClusterRow is one scenario's outcome.
type ClusterRow struct {
	Scenario string
	Router   string
	TTFTp50  float64 // µs
	TTFTp99  float64 // µs
	TPOT     float64 // mean µs/token
	Goodput  float64 // tokens/s
	LocalMB  float64 // KV payload served from replica-local DRAM
	SharedMB float64 // KV payload served over the fabric
	SwWaitUS float64 // total switch egress arbitration wait (µs)
	PeakQ    int     // deepest egress-port queue seen
	Replicas []ClusterReplicaRow
	Links    []ClusterLinkRow
}

// clusterRow runs one scenario to completion. shards and recruit
// configure sharded execution (see ClusterConfig.Shards); recruit may
// be nil.
func clusterRow(sc ClusterScenario, requests int, seed int64, shards int, recruit func(int) (int, func())) (ClusterRow, uint64) {
	m := cluster.Run(cluster.Config{
		Seed:         seed,
		Replicas:     sc.Replicas,
		Requests:     requests,
		RatePerSec:   clusterRate,
		LocalBlocks:  sc.LocalBlocks,
		SharedBlocks: sc.SharedBlocks,
		Router:       sc.Router(),
		Shards:       shards,
		Recruit:      recruit,
	})
	const mb = 1.0 / (1 << 20)
	row := ClusterRow{
		Scenario: sc.Name,
		Router:   m.Router,
		TTFTp50:  m.TTFT.Median(),
		TTFTp99:  m.TTFT.P99(),
		TPOT:     m.TPOT.Mean(),
		Goodput:  m.Goodput,
		SwWaitUS: float64(m.SwitchWaited()) / float64(sim.Microsecond),
		PeakQ:    m.PeakQueue(),
	}
	for i, r := range m.Replicas {
		row.LocalMB += float64(r.LocalBytes) * mb
		row.SharedMB += float64(r.SharedBytes) * mb
		row.Replicas = append(row.Replicas, ClusterReplicaRow{
			Replica:  i,
			Requests: r.Requests,
			TTFT:     r.TTFT.Mean(),
			TPOT:     r.TPOT.Mean(),
			LocalMB:  float64(r.LocalBytes) * mb,
			SharedMB: float64(r.SharedBytes) * mb,
		})
	}
	for _, l := range m.Links {
		row.Links = append(row.Links, ClusterLinkRow{
			Link:   l.Link,
			AToBMB: float64(l.ABytes) * mb,
			BToAMB: float64(l.BABytes) * mb,
		})
	}
	return row, m.Accesses
}

// ClusterJobs returns the section as one self-contained job: every
// scenario must serve the same request stream for the sweep to compare
// like with like, so they all share the job's derived seed, and the
// independent cluster simulations fan out as Fork sub-jobs over the pool
// — byte-identical to the inline loop, whatever the worker count.
func ClusterJobs(cfg ClusterConfig) []runner.Job {
	requests := cfg.requests()
	return []runner.Job{{ID: "cluster", Run: func(ctx *runner.Ctx) (any, error) {
		seed := ctx.Seed
		if cfg.Seed != 0 {
			seed = cfg.Seed
		}
		var subs []runner.SubJob
		for _, sc := range ClusterScenarios() {
			subs = append(subs, runner.SubJob{ID: sc.Name, Run: func(sctx *runner.Ctx) (any, error) {
				row, accesses := clusterRow(sc, requests, seed, cfg.Shards, sctx.TryRecruit)
				sctx.AddEvents(accesses)
				return []ClusterRow{row}, nil
			}})
		}
		return forkRows[ClusterRow](ctx, subs)
	}}}
}

// Cluster runs the section serially.
func Cluster(cfg ClusterConfig) []ClusterRow {
	return collectRows[ClusterRow](runSerial(ClusterJobs(cfg)))
}

// printClusterTable is printTable with a wider first column: cluster row
// labels compose scenario, router and link names ("4r/oversub/affinity/r0")
// and would overflow the shared 17-character grid.
func printClusterTable(w io.Writer, title string, header []string, rows [][]string) {
	fmt.Fprintf(w, "\n%s\n", title)
	width := func(col int) int {
		if col == 0 {
			return 24
		}
		return 17
	}
	for i, h := range header {
		fmt.Fprintf(w, "%-*s", width(i), h)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		for i, c := range row {
			fmt.Fprintf(w, "%-*s", width(i), c)
		}
		fmt.Fprintln(w)
	}
}

// PrintCluster renders the scenario summary, the per-replica breakdown,
// and the per-link fabric traffic.
func PrintCluster(w io.Writer, rows []ClusterRow) {
	var summary [][]string
	for _, r := range rows {
		summary = append(summary, []string{
			r.Scenario, r.Router,
			fmtCell(r.TTFTp50), fmtCell(r.TTFTp99), fmtCell(r.TPOT),
			fmtCell(r.Goodput / 1000), fmtCell(r.LocalMB), fmtCell(r.SharedMB),
			fmtCell(r.SwWaitUS), fmt.Sprintf("%9d", r.PeakQ),
		})
	}
	printClusterTable(w, "Cluster serving — replicas sharing pooled CXL memory behind a switch",
		[]string{"scenario", "router", "TTFT-p50(us)", "TTFT-p99(us)", "TPOT(us)",
			"goodput(ktok/s)", "local(MB)", "shared(MB)", "sw-wait(us)", "peak-queue"},
		summary)

	var perRep [][]string
	for _, r := range rows {
		for _, rr := range r.Replicas {
			perRep = append(perRep, []string{
				fmt.Sprintf("%s/r%d", r.Scenario, rr.Replica),
				fmt.Sprintf("%9d", rr.Requests),
				fmtCell(rr.TTFT), fmtCell(rr.TPOT),
				fmtCell(rr.LocalMB), fmtCell(rr.SharedMB),
			})
		}
	}
	printClusterTable(w, "Per-replica serving breakdown",
		[]string{"scenario/replica", "requests", "TTFT(us)", "TPOT(us)",
			"local(MB)", "shared(MB)"}, perRep)

	var perLink [][]string
	for _, r := range rows {
		for _, l := range r.Links {
			perLink = append(perLink, []string{
				fmt.Sprintf("%s/%s", r.Scenario, l.Link),
				fmtCell(l.AToBMB), fmtCell(l.BToAMB),
			})
		}
	}
	printClusterTable(w, "Per-link fabric traffic",
		[]string{"scenario/link", "a->b(MB)", "b->a(MB)"}, perLink)
}
