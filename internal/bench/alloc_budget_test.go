package bench

import "testing"

// fig2aCellAllocBudget is the allocation budget for one BenchmarkFig2aCell
// iteration. The PR 8 hot-path round brought the cell from 7,616 allocs/op
// down to ~1,360; what remains is the small structs of machine
// construction, workload compilation and JSON digests. The budget pins
// that result with ~10% headroom: a change that quietly reintroduces
// per-operation or per-attempt allocation on the cell path fails here long
// before it is visible in wall-clock.
const fig2aCellAllocBudget = 1500

// fig2aCellByteBudget is the same cell's budget in bytes. Machines take
// their large arrays — memory backings, L2, each strand's L1, TLBs and
// branch table — from the free list Machine.Recycle refills, so a warm
// cell allocates ~180 KB where it allocated 5.8 MB before the free list
// (the L2 and the page-sized TLB indexes were rebuilt for every machine).
// Any array that bypasses the free list costs more than the headroom.
const fig2aCellByteBudget = 200 << 10

// TestFig2aCellAllocBudget runs the cell benchmark through the testing
// harness and fails if allocs/op regresses above the budget. It complements
// the strict alloc-free pins on the obs recorders (internal/obs): the cell
// necessarily allocates — it builds whole machines — so it gets a budget
// rather than a zero.
func TestFig2aCellAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs full benchmark iterations")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o := Options{Threads: []int{4}, OpsPerThread: 300, Seed: 1}
			if _, err := Fig2a(o); err != nil {
				b.Fatal(err)
			}
		}
	})
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if allocs := res.AllocsPerOp(); allocs > fig2aCellAllocBudget {
		t.Errorf("fig2a cell allocates %d allocs/op, budget is %d — a hot-path allocation crept back in",
			allocs, fig2aCellAllocBudget)
	}
	t.Logf("fig2a cell: %d B/op", res.AllocedBytesPerOp())
	if bytes := res.AllocedBytesPerOp(); bytes > fig2aCellByteBudget {
		t.Errorf("fig2a cell allocates %d B/op, budget is %d — a construction array bypasses the free list",
			bytes, fig2aCellByteBudget)
	}
}

// fleetCellAllocsPerRequest is the allocation budget per request of a tiny
// fleet cell (two PhTM shards, uniform keys, 10% cross-shard 2PC), with
// fleet construction amortized over the cell's 2,000 requests. Batches
// and 2PC phases run on the continuation driver through step functions
// bound once per shard and per fleet, and the service batch path reuses
// per-shard and per-fleet buffers, so the steady state makes no
// per-batch, per-leg or per-request allocation: the cell measures 0.24
// (472 allocs, all construction). One allocation per batch adds ~0.13 and
// fails here; so does anything per request. Before the pool the cell made
// ~30 allocs/request, and ~6 with the pool but per-batch service buffers.
const fleetCellAllocsPerRequest = 0.3

// fleetCellByteBudget is the same cell's budget in bytes per cell. The
// shard machines' large arrays come from the free list, so what remains is
// the per-shard and per-fleet latency recorders and window series, which
// are observation state, not construction: ~290 KB per cell, down from
// 1.7 MB before the free list.
const fleetCellByteBudget = 320 << 10

// TestFleetCellAllocBudget fails if a per-batch, per-leg or per-request
// allocation creeps back into the fleet path.
func TestFleetCellAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs full benchmark iterations")
	}
	const shards, opsPerShard = 2, 1000
	o := Options{Threads: []int{shards}, OpsPerThread: opsPerShard, Seed: 1}.Defaults()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := runFleet(o, fleetScenarios()[0], tailSystems()[0], shards, 10, o.timelineWidth()); err != nil {
				b.Fatal(err)
			}
		}
	})
	if res.N == 0 {
		t.Fatal("benchmark did not run")
	}
	perReq := float64(res.AllocsPerOp()) / (shards * opsPerShard)
	t.Logf("fleet cell: %d allocs/op, %.2f allocs/request", res.AllocsPerOp(), perReq)
	if perReq > fleetCellAllocsPerRequest {
		t.Errorf("fleet cell allocates %.2f allocs/request, budget is %.2f — a per-batch or per-leg allocation crept back in",
			perReq, fleetCellAllocsPerRequest)
	}
	t.Logf("fleet cell: %d B/op", res.AllocedBytesPerOp())
	if bytes := res.AllocedBytesPerOp(); bytes > fleetCellByteBudget {
		t.Errorf("fleet cell allocates %d B/op, budget is %d — a shard machine's array bypasses the free list",
			bytes, fleetCellByteBudget)
	}
}
