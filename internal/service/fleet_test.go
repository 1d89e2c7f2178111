package service

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/locktm"
	"rocktm/internal/sim"
	"rocktm/internal/workload"
)

func testLoad(requests int, crossPct int) LoadSpec {
	return LoadSpec{
		Requests:  requests,
		PctLookup: 50,
		Keys:      workload.Zipfian(128, 0.99),
		Arrival:   workload.Arrival{MeanGap: 400, Seed: 3},
		CrossPct:  crossPct,
		Seed:      11,
	}
}

// Two fleets built from the same Config and offered the same LoadSpec
// must produce byte-identical results — the property that lets fleet
// cells ride the runner cache.
func TestFleetDeterministic(t *testing.T) {
	run := func() Result {
		f := testFleet(t, 2, nil, sim.FaultPlan{}, nil)
		res, err := f.Run(testLoad(200, 20))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, _ := json.Marshal(run())
	b, _ := json.Marshal(run())
	if string(a) != string(b) {
		t.Fatalf("fleet run not deterministic:\n%s\n%s", a, b)
	}
}

// Every request completes, per-shard ops sum to the request count, and
// the fleet is quiescent (no lock owners) after the run.
func TestFleetRunCompletes(t *testing.T) {
	f := testFleet(t, 3, nil, sim.FaultPlan{}, nil)
	res, err := f.Run(testLoad(300, 25))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Requests != 300 {
		t.Fatalf("Requests = %d, want 300", res.Requests)
	}
	var sum uint64
	for _, sh := range res.Shards {
		sum += sh.Ops
	}
	if sum != 300 {
		t.Fatalf("per-shard ops sum to %d, want 300", sum)
	}
	if res.Lat.P50 <= 0 || res.Lat.P999 < res.Lat.P50 {
		t.Fatalf("implausible latency summary: %+v", res.Lat)
	}
	if res.ElapsedCycles <= 0 || res.Seconds <= 0 {
		t.Fatalf("implausible elapsed: %d cycles, %g s", res.ElapsedCycles, res.Seconds)
	}
	if res.Committed2PC == 0 {
		t.Fatal("25%% cross-shard load committed no 2PC transactions")
	}
	for i := 0; i < f.Shards(); i++ {
		if owners := f.LockOwners(i); len(owners) != 0 {
			t.Fatalf("shard %d not quiescent after run: %v", i, owners)
		}
	}
	if len(res.Series) != 3 {
		t.Fatalf("Series count = %d, want 3", len(res.Series))
	}
}

// Changing the cross-shard fraction must not perturb the primary op/key
// stream: the single-op legs of a CrossPct>0 run are the same ops, in
// the same arrival order, as the CrossPct=0 run (stream separation).
func TestCrossFractionDoesNotPerturbPrimaryStream(t *testing.T) {
	trace := func(crossPct int) []Op {
		load := testLoad(100, crossPct)
		sp := workload.KVSpec(load.Keys, load.PctLookup)
		sp.Arrival = load.Arrival
		c, err := sp.Compile()
		if err != nil {
			t.Fatal(err)
		}
		src := c.Source(load.Seed)
		var ops []Op
		for i := 0; i < load.Requests; i++ {
			src.NextArrival()
			opIdx, key := src.Next()
			ops = append(ops, Op{Kind: opKindOf(opIdx), Key: key})
			if crossPct > 0 && src.ExtraRoll(100) < crossPct {
				src.ExtraKey()
			}
		}
		return ops
	}
	a, b := trace(0), trace(40)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("primary stream diverged at request %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// The batch deadline bounds queueing: with a sparse arrival process a
// shard must not sit on a pending request past MaxDelay, so worst-case
// latency stays near MaxDelay plus service time, not near the arrival
// gap.
func TestBatchDeadlineBoundsLatency(t *testing.T) {
	build := func(maxDelay int64) *Fleet {
		f, err := New(Config{
			Shards:   2,
			Strands:  2,
			KeyRange: 128,
			Buckets:  1 << 7,
			MemWords: 1 << 17,
			Seed:     7,
			System:   func(m *sim.Machine) core.System { return locktm.NewOneLock(m) },
			Batch:    BatchConfig{MaxSize: 64, MaxDelay: maxDelay},
		})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	load := LoadSpec{
		Requests:  64,
		PctLookup: 100,
		Keys:      workload.Uniform(128),
		Arrival:   workload.Arrival{MeanGap: 20000, Seed: 5},
		Seed:      9,
	}
	tight, err := build(1000).Run(load)
	if err != nil {
		t.Fatal(err)
	}
	loose, err := build(100000).Run(load)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Lat.Max >= loose.Lat.Max {
		t.Fatalf("tight deadline max latency %d not below loose %d", tight.Lat.Max, loose.Lat.Max)
	}
	// With gaps (mean 20k) far above the 1k deadline, batches are mostly
	// singletons: no request should wait much past deadline + service.
	if tight.Lat.Max > 1000+5000 {
		t.Fatalf("tight-deadline max latency %d way past deadline+service", tight.Lat.Max)
	}
}

// Under heavy zipfian skew the range router concentrates load while the
// hot-aware router spreads it: the max/min per-shard op imbalance must
// be strictly worse for range than for hot.
func TestHotAwareReducesImbalance(t *testing.T) {
	imbalance := func(name string) float64 {
		router, err := NewRouter(name, 4, 128)
		if err != nil {
			t.Fatal(err)
		}
		f := testFleet(t, 4, router, sim.FaultPlan{}, nil)
		res, err := f.Run(LoadSpec{
			Requests:  400,
			PctLookup: 90,
			Keys:      workload.Zipfian(128, 0.99),
			Arrival:   workload.Arrival{MeanGap: 200, Seed: 3},
			Seed:      11,
		})
		if err != nil {
			t.Fatal(err)
		}
		max, min := uint64(0), ^uint64(0)
		for _, sh := range res.Shards {
			if sh.Ops > max {
				max = sh.Ops
			}
			if sh.Ops < min {
				min = sh.Ops
			}
		}
		if min == 0 {
			min = 1
		}
		return float64(max) / float64(min)
	}
	r, h := imbalance("range"), imbalance("hot")
	if h >= r {
		t.Fatalf("hot-aware imbalance %.2f not below range imbalance %.2f", h, r)
	}
}

// Config validation rejects nonsense.
func TestFleetConfigValidation(t *testing.T) {
	base := Config{
		Shards:   2,
		KeyRange: 64,
		System:   func(m *sim.Machine) core.System { return locktm.NewOneLock(m) },
	}
	bad := base
	bad.Shards = 0
	if _, err := New(bad); err == nil {
		t.Error("Shards=0 accepted")
	}
	bad = base
	bad.KeyRange = 0
	if _, err := New(bad); err == nil {
		t.Error("KeyRange=0 accepted")
	}
	bad = base
	bad.System = nil
	if _, err := New(bad); err == nil {
		t.Error("nil System accepted")
	}
	bad = base
	bad.Router = NewHashMap(3)
	if _, err := New(bad); err == nil {
		t.Error("router/shard mismatch accepted")
	}
	// The continuation driver is the tier's only driver: a system without
	// a continuation-machine form, or a machine design point that cannot
	// step, is rejected instead of failing mid-run.
	bad = base
	bad.System = func(m *sim.Machine) core.System { return coroutineOnly{locktm.NewOneLock(m)} }
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "StepSystem") {
		t.Errorf("system without StepAtomic: err %v, want a StepSystem rejection", err)
	}
	mc := MachineConfig(base, 0)
	mc.HTM.Resolve = sim.ResCommitterWins
	m := sim.New(mc)
	defer m.Recycle()
	if err := steppable(m, locktm.NewOneLock(m)); err == nil {
		t.Error("committer-wins shard machine accepted")
	}
	f, err := New(base)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := f.Run(LoadSpec{Requests: 0, PctLookup: 50, Keys: workload.Uniform(64)}); err == nil {
		t.Error("Requests=0 accepted")
	}
	if _, err := f.Run(LoadSpec{Requests: 1, PctLookup: 50, Keys: workload.Uniform(64), CrossPct: 101}); err == nil {
		t.Error("CrossPct=101 accepted")
	}
}

// coroutineOnly hides a system's continuation-machine form.
type coroutineOnly struct{ core.System }

// Recycling a fleet twice is harmless, and a recycled fleet refuses to
// run instead of computing on arrays its successors now own.
func TestFleetRecycleIsIdempotentAndFinal(t *testing.T) {
	f := testFleet(t, 2, nil, sim.FaultPlan{}, nil)
	if _, err := f.Run(testLoad(50, 20)); err != nil {
		t.Fatalf("Run: %v", err)
	}
	f.Recycle()
	f.Recycle()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "recycled") {
			t.Fatalf("Run on a recycled fleet: panic %v, want one naming the recycled machine", r)
		}
	}()
	f.Run(testLoad(50, 20))
}
