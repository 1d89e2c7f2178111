package main

import (
	"fmt"
	"math"
	"sort"

	"rocktm/internal/core"
	"rocktm/internal/cps"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name, Unit, Better string
}

// endToEndMetrics come only from untraced child runs, except the kv
// workloads' simulated p99.9, which the kv figures do not print and the
// replay supplies (README.md).
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"sim_ops_per_us_gmean", "ops/us", "higher"},
	{"sim_p999_cycles_gmean", "cycles", "lower"},
}

// perLayerMetrics come only from the traced pass. README.md says which
// end-to-end metric each should move, and on which workload.
var perLayerMetrics = []metricDef{
	{"runner.cells", "count", "lower"},
	{"runner.cell_s_p50", "s", "lower"},
	{"runner.cell_s_max", "s", "lower"},
	{"runner.max_cell_share", "ratio", "lower"},
	{"runner.overhead_s", "s", "lower"},
	{"bench.render_s", "s", "lower"},
	{"sim.new_s", "s", "lower"},
	{"sim.recycle_s", "s", "lower"},
	{"rbtree.build_s", "s", "lower"},
	{"hashtable.build_s", "s", "lower"},
	{"core.build_s", "s", "lower"},
	{"service.new_s", "s", "lower"},
	{"service.run_s", "s", "lower"},
	{"sim.run_s", "s", "lower"},
	{"sim.host_ns_per_access", "ns", "lower"},
	{"sim.host_ns_per_op", "ns", "lower"},
	{"sim.accesses", "count", "lower"},
	{"sim.l1_miss_ratio", "ratio", "lower"},
	{"sim.l2_misses", "count", "lower"},
	{"sim.tlb_walks", "count", "lower"},
	{"sim.mispredicts", "count", "lower"},
	{"sim.cycles", "cycles", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"rock.tx_begins", "count", "lower"},
	{"rock.commit_ratio", "ratio", "higher"},
	{"rock.cps_coh", "ratio", "lower"},
	{"rock.cps_cti", "ratio", "lower"},
	{"rock.cps_ucti", "ratio", "lower"},
	{"rock.cps_st", "ratio", "lower"},
	{"rock.cps_ld", "ratio", "lower"},
	{"rock.cps_siz", "ratio", "lower"},
	{"rock.cps_inst", "ratio", "lower"},
	{"rock.cps_tcc", "ratio", "lower"},
	{"core.hw_retry_fraction", "ratio", "lower"},
	{"core.sw_abort_ratio", "ratio", "lower"},
	{"core.lock_ratio", "ratio", "lower"},
	{"service.twopc_abort_ratio", "ratio", "lower"},
	{"service.shard_imbalance", "ratio", "lower"},
	{"trace.overhead_s", "s", "lower"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// collect pairs every declared metric with its value; a declared metric
// without a value is a harness bug.
func collect(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, %d declared", len(values), len(defs))
	}
	return out, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// gmean is the geometric mean of positive values.
func gmean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpsBits are the CPS bits whose share of failed hardware attempts the
// traced pass reports.
var cpsBits = []struct {
	name string
	bit  cps.Bits
}{
	{"coh", cps.COH}, {"cti", cps.CTI}, {"ucti", cps.UCTI}, {"st", cps.ST},
	{"ld", cps.LD}, {"siz", cps.SIZ}, {"inst", cps.INST}, {"tcc", cps.TCC},
}

// layerMetrics derives the per-layer metrics from part (a), a traced
// replay and the measured tracing overhead. A layer a workload never
// calls reads 0.
func layerMetrics(a figurePass, on replayPass, traceOverhead float64) map[string]float64 {
	m := map[string]float64{}

	var cellSum, cellMax float64
	for _, s := range a.cellSeconds {
		cellSum += s
		cellMax = math.Max(cellMax, s)
	}
	m["runner.cells"] = float64(len(a.cellSeconds))
	m["runner.cell_s_p50"] = median(a.cellSeconds)
	m["runner.cell_s_max"] = cellMax
	m["runner.max_cell_share"] = ratio(cellMax, cellSum)
	m["runner.overhead_s"] = a.callSeconds - cellSum
	m["bench.render_s"] = a.renderSeconds

	self := on.tr.selfSeconds()
	for _, layer := range []string{"sim.new", "sim.recycle", "rbtree.build", "hashtable.build",
		"core.build", "service.new", "service.run", "sim.run"} {
		m[layer+"_s"] = self[layer]
	}

	total := core.NewStats()
	var loads, stores, cases, l1, l2, tlb, mispredicts, begins, commits float64
	var cycles, ops, mallocs, allocBytes, gcs, committed, aborted float64
	var imbalance []float64
	for _, r := range on.results {
		loads += float64(r.strand.Loads)
		stores += float64(r.strand.Stores)
		cases += float64(r.strand.CASes)
		l1 += float64(r.strand.L1Misses)
		l2 += float64(r.strand.L2Misses)
		tlb += float64(r.strand.TLBWalks)
		mispredicts += float64(r.strand.Mispredicts)
		begins += float64(r.strand.TxBegins)
		commits += float64(r.strand.TxCommits)
		cycles += float64(r.cycles)
		ops += float64(r.ops)
		mallocs += float64(r.mem.mallocs)
		allocBytes += float64(r.mem.bytes)
		gcs += float64(r.mem.gcs)
		committed += float64(r.committed2PC)
		aborted += float64(r.aborted2PC)
		if r.stats != nil {
			total.Merge(r.stats)
		}
		if len(r.shardOps) > 1 {
			var sum, top float64
			for _, o := range r.shardOps {
				sum += float64(o)
				top = math.Max(top, float64(o))
			}
			imbalance = append(imbalance, ratio(top, sum/float64(len(r.shardOps))))
		}
	}
	accesses := loads + stores + cases
	// The host time of the calls that drive the simulated machines:
	// Machine.Run on the kv workloads, Fleet.Run on the fleet.
	runNs := (self["sim.run"] + self["service.run"]) * 1e9
	m["sim.host_ns_per_access"] = ratio(runNs, accesses)
	m["sim.host_ns_per_op"] = ratio(runNs, ops)
	m["sim.accesses"] = accesses
	m["sim.l1_miss_ratio"] = ratio(l1, accesses)
	m["sim.l2_misses"] = l2
	m["sim.tlb_walks"] = tlb
	m["sim.mispredicts"] = mispredicts
	m["sim.cycles"] = cycles
	m["runtime.allocs_per_op"] = ratio(mallocs, ops)
	m["runtime.alloc_bytes_per_op"] = ratio(allocBytes, ops)
	m["runtime.gc_cycles"] = gcs
	m["rock.tx_begins"] = begins
	m["rock.commit_ratio"] = ratio(commits, begins)
	failedAttempts := float64(total.CPSHist.Total())
	for _, b := range cpsBits {
		m["rock.cps_"+b.name] = ratio(float64(total.CPSHist.BitCount(b.bit)), failedAttempts)
	}
	m["core.hw_retry_fraction"] = total.RetryFraction()
	m["core.sw_abort_ratio"] = ratio(float64(total.SWAborts), float64(total.SWCommits+total.SWAborts))
	m["core.lock_ratio"] = ratio(float64(total.LockAcquires), float64(total.Ops))
	m["service.twopc_abort_ratio"] = ratio(aborted, committed+aborted)
	m["service.shard_imbalance"] = 0
	if len(imbalance) > 0 {
		m["service.shard_imbalance"] = gmean(imbalance)
	}
	m["trace.overhead_s"] = traceOverhead
	return m
}
