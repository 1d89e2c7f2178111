package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"rocktm/internal/core"
	"rocktm/internal/locktm"
	"rocktm/internal/phtm"
	"rocktm/internal/sim"
	"rocktm/internal/stm/sky"
	"rocktm/internal/tle"
	"rocktm/internal/workload"
)

// Fleet-level cycle identity: a tiny fleet for every fleet TM system ×
// {no cross-shard, 10% cross-shard with coordinator crashes} × {no
// faults, adversarial invalidations}, on 2 and 3 shards, digested over
// everything Result carries (throughput, latency summaries, 2PC counts,
// per-shard ops, machine cycles and window series, merged TM statistics).
// SkySTM and one-lock run no hardware transactions, so the fault plan
// leaves them untouched and their two fault rows share digests. The
// digests were recorded from the coroutine-driven service tier, so they
// pin the batch and 2PC scheduling, clocks and RNG draws of any driver
// that replaces it. Regenerate (only for an intended modelling
// change) with:
//
//	SERVICE_GOLDEN_REGEN=1 go test ./internal/service -run TestGoldenFleetDigests
var goldenFleets = []struct {
	system string
	cross  int
	faults string
	digest [2]string // 2 shards, 3 shards
}{
	{"phtm", 0, "none", [2]string{"4e1f1442b2f7ea8a9e21a74c0171b6bf", "89f3f800abb4683d78868cb114a351bc"}},
	{"phtm", 0, "inval", [2]string{"6593c1e65537d3a55b6bbd519dc9c612", "36b02320571e76895bd5a23f8f6acfcb"}},
	{"phtm", 10, "none", [2]string{"f3e3c12fa38d1aef7da0ab59fb8bfc0f", "0cb04dde410351f2c70d3e8d020392a6"}},
	{"phtm", 10, "inval", [2]string{"9103b61b9456db95eddddc4260b94b4a", "16d4e78b2553da2ebb6663293b300b64"}},
	{"tle", 0, "none", [2]string{"610940dc6dbd81c98649fad64cb7e91d", "6f0442c4770ba0ba7bf8453e5c4844b2"}},
	{"tle", 0, "inval", [2]string{"694c4cbd276d8d88dc39cd9b3c158f06", "cc0e208556883b087671499b8696ebed"}},
	{"tle", 10, "none", [2]string{"20711c97a0189253f1c5abc50310e0eb", "9ee1c82c15268356ec569fc969c41f9a"}},
	{"tle", 10, "inval", [2]string{"3b89656351d9a4d730f7cdb6788f1a2b", "14bb81e022010e52b199cc9a38a2098a"}},
	{"stm", 0, "none", [2]string{"7345dd631c9fd961e9a492096c1e109a", "f1fc72c5376faef0170402e20a5ad4d9"}},
	{"stm", 0, "inval", [2]string{"7345dd631c9fd961e9a492096c1e109a", "f1fc72c5376faef0170402e20a5ad4d9"}},
	{"stm", 10, "none", [2]string{"a3896d9d329948120b0af7de0082204c", "84b0c494f0df70eba62e421ee329c23c"}},
	{"stm", 10, "inval", [2]string{"a3896d9d329948120b0af7de0082204c", "84b0c494f0df70eba62e421ee329c23c"}},
	{"one-lock", 0, "none", [2]string{"8ad6cb5de9a83130de5ffda74be3e661", "aacafa6d31b4998066471f6959434c51"}},
	{"one-lock", 0, "inval", [2]string{"8ad6cb5de9a83130de5ffda74be3e661", "aacafa6d31b4998066471f6959434c51"}},
	{"one-lock", 10, "none", [2]string{"1a8a0a60f0c0a9c9c5e69ea4dabbac21", "4ad2531d19588592aafd9e3adeb2fa28"}},
	{"one-lock", 10, "inval", [2]string{"1a8a0a60f0c0a9c9c5e69ea4dabbac21", "4ad2531d19588592aafd9e3adeb2fa28"}},
}

// goldenSystems are the fleet experiment's TM systems.
var goldenSystems = map[string]SystemBuilder{
	"phtm": func(m *sim.Machine) core.System { return phtm.New(m, sky.New(m), phtm.DefaultConfig()) },
	"tle": func(m *sim.Machine) core.System {
		return tle.New("tle", tle.SpinAdapter{L: locktm.NewSpinLock(m.Mem())}, tle.DefaultPolicy())
	},
	"stm":      func(m *sim.Machine) core.System { return sky.New(m) },
	"one-lock": func(m *sim.Machine) core.System { return locktm.NewOneLock(m) },
}

// goldenFleetDigest runs one golden fleet and digests its Result.
func goldenFleetDigest(t *testing.T, system string, shards, cross int, faults string) string {
	t.Helper()
	f, err := New(Config{
		Shards:       shards,
		KeyRange:     256,
		Buckets:      1 << 7,
		MemWords:     1 << 20,
		Seed:         5,
		System:       goldenSystems[system],
		CoordFailPct: 20,
		Faults:       sim.FaultProfile(faults),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer f.Recycle()
	res, err := f.Run(LoadSpec{
		Requests:  400 * shards,
		PctLookup: 50,
		Keys:      workload.Zipfian(256, 0.9),
		Arrival:   workload.Diurnal(1024/float64(shards), 3, 1<<18, 0.6),
		CrossPct:  cross,
		Seed:      13,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	h := sha256.New()
	js, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
	fmt.Fprintf(h, "|%+v|%v", res.Stats.Sample().Counters, res.Stats.CPSHist.Entries())
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func TestGoldenFleetDigests(t *testing.T) {
	regen := os.Getenv("SERVICE_GOLDEN_REGEN") != ""
	for _, g := range goldenFleets {
		var got [2]string
		for i, shards := range []int{2, 3} {
			got[i] = goldenFleetDigest(t, g.system, shards, g.cross, g.faults)
		}
		if regen {
			fmt.Printf("\t{%q, %d, %q, [2]string{%q, %q}},\n", g.system, g.cross, g.faults, got[0], got[1])
			continue
		}
		if got != g.digest {
			t.Errorf("%s cross=%d faults=%s: digests %v, pinned %v", g.system, g.cross, g.faults, got, g.digest)
		}
	}
	if regen {
		t.Fatal("SERVICE_GOLDEN_REGEN set: digests printed above; paste into goldenFleets and unset")
	}
}
