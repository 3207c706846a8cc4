package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// tinyLineitems keeps test runs to a few row groups.
const tinyLineitems = 40_000

func tinyConfig(t *testing.T, workload string, seed int64) config {
	dir := t.TempDir()
	return config{workload: workload, seed: seed, seconds: 1, work: filepath.Join(dir, "work"),
		out: filepath.Join(dir, "out"), lineitems: tinyLineitems, setups: 2}
}

func TestTinyRunsPass(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := tinyConfig(t, w.name, 7)
			cfg.trace = traced
			var log bytes.Buffer
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res, err := run(ctx, cfg, &log)
			cancel()
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, traced, err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: failed %d of %d\n%s", w.name, traced, res.Failed, res.Attempted, log.String())
			}
			specs := endToEnd
			if traced {
				specs = perLayer()
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, s.Name, m, s.Unit)
				}
				// A few hundred KB of tiny tables do not show in the live heap.
				if !traced && m.Value <= 0 && s.Name != "mem_live_mb" {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, s.Name, m.Value)
				}
			}
			t.Logf("%s trace=%v:\n%s", w.name, traced, log.String())
		}
	}
}

func fileHash(t *testing.T, path string) [32]byte {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(data)
}

// streamSQL generates every workload's op streams from one seed and
// returns their statements.
func streamSQL(t *testing.T, seed int64) (map[string][][]string, map[string][32]byte) {
	dir := t.TempDir()
	ds, err := generate(dir, seed, tinyLineitems, true, true)
	if err != nil {
		t.Fatal(err)
	}
	hashes := map[string][32]byte{
		"lineitem": fileHash(t, ds.lineitemCSV),
		"orders":   fileHash(t, ds.ordersCSV),
	}
	out := map[string][][]string{}
	for _, w := range workloads {
		streams, _ := w.gen(ds, seed, w.warmup+2*w.measuredOps(1))
		for _, s := range streams {
			var sqls []string
			for _, o := range s {
				sqls = append(sqls, o.sql)
			}
			out[w.name] = append(out[w.name], sqls)
		}
	}
	return out, hashes
}

func TestSameSeedSameInputs(t *testing.T) {
	ops1, csv1 := streamSQL(t, 3)
	ops2, csv2 := streamSQL(t, 3)
	if !reflect.DeepEqual(csv1, csv2) {
		t.Error("same seed wrote different CSV")
	}
	if !reflect.DeepEqual(ops1, ops2) {
		t.Error("same seed generated different op sequences")
	}
	ops3, csv3 := streamSQL(t, 4)
	if reflect.DeepEqual(csv1, csv3) {
		t.Error("different seeds wrote identical CSV")
	}
	for _, w := range []string{"report", "trickle"} {
		if reflect.DeepEqual(ops1[w], ops3[w]) {
			t.Errorf("%s: different seeds generated identical op sequences", w)
		}
	}
}

// minSamples is the smallest sample size whose p-th percentile has
// beyondMin values beyond it.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(p/100*float64(n))) >= beyondMin {
			return n
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {10, 10}} {
		got, err := percentile(xs, c.p)
		if err != nil || got != c.want {
			t.Errorf("p%v of 1..100 = %v, %v; want %v", c.p, got, err, c.want)
		}
	}
	// Ten beyond: p90 needs 100 samples, p50 needs 20.
	if _, err := percentile(xs[:99], 90); err == nil {
		t.Error("p90 of 99 samples accepted with only 9 beyond it")
	}
	if _, err := percentile(xs[:19], 50); err == nil {
		t.Error("p50 of 19 samples accepted with only 9 beyond it")
	}
	if got, err := percentile(xs[:20], 50); err != nil || got != 90 {
		// xs[:20] holds 100..81; its 10th smallest is 90.
		t.Errorf("p50 of 20 samples = %v, %v; want 90", got, err)
	}
	if n := minSamples(90); n != 100 {
		t.Errorf("minSamples(90) = %d, want 100", n)
	}
	if n := minSamples(50); n != 20 {
		t.Errorf("minSamples(50) = %d, want 20", n)
	}
	if _, err := percentile(xs, 100); err == nil {
		t.Error("p100 accepted")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// Every workload guarantees its read_p90_ms ten samples beyond it.
func TestMeasuredReadsSupportP90(t *testing.T) {
	dir := t.TempDir()
	ds, err := generate(dir, 1, tinyLineitems, true, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		n := w.measuredOps(1)
		streams, _ := w.gen(ds, 1, w.warmup+n)
		reads := 0
		for _, s := range streams {
			for _, o := range s[w.warmup:] {
				if o.class == classRead {
					reads++
				}
			}
		}
		if reads < minSamples(90) {
			t.Errorf("%s: %d measured reads, p90 needs %d", w.name, reads, minSamples(90))
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "session.exec", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "sql.parse", Start: 10, End: 20},
		{ID: 3, Parent: 1, Name: "exec.execute", Start: 15, End: 60}, // overlaps parse
		{ID: 4, Parent: 3, Name: "inner", Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 10, 3: 35, 4: 10} {
		if got := int64(self[id]); got != want {
			t.Errorf("span %d self = %d, want %d", id, got, want)
		}
	}
}

func TestPlanParsing(t *testing.T) {
	plan := `HashAgg(groups=[0], [count(*)]) :: [VARCHAR, BIGINT]
  ParallelHashJoin[inner](lk=[0], rk=[0], degree=2) :: [BIGINT]
    Scan('orders', [o_orderkey o_orderpriority] @ [0 4]) :: [BIGINT, VARCHAR]
    ParallelScan('lineitem', [l_orderkey l_comment l_comment$null] @ [0 10 11], worker 0/2, queue=0) :: [BIGINT]
    ParallelScan('lineitem', [l_orderkey l_comment l_comment$null] @ [0 10 11], worker 1/2, queue=0) :: [BIGINT]`
	if n := scanColumns(plan); n != 5 {
		t.Errorf("scanColumns = %d, want 5", n)
	}
	if d := planDegree(plan); d != 2 {
		t.Errorf("planDegree = %d, want 2", d)
	}
	if d := planDegree("Scan('t', [a] @ [0])"); d != 1 {
		t.Errorf("planDegree of a serial plan = %d, want 1", d)
	}
}

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// BENCHMARK.json declares exactly the workloads and metrics this benchmark
// runs and reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, bf.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		want, _ := json.Marshal(endToEnd)
		t.Errorf("end_to_end differs from the benchmark:\n%s", want)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer()) {
		want, _ := json.Marshal(perLayer())
		t.Errorf("per_layer differs from the benchmark:\n%s", want)
	}
}
