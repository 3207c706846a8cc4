package main

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the engine sees, reported by every
// workload with tracing off. The timing bounds are wide because the
// reference machine (a 2-vCPU VM) runs identical work up to 25% slower
// from one process to the next; the counts-derived metrics repeat within
// 1%.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"alloc_mb_per_op", "MiB", "lower", 0.05},
	{"mem_live_mb", "MiB", "lower", 0.05},
	{"stored_bytes_ratio", "ratio", "lower", 0.05},
}

// allTemplates are the read templates of every workload, in the order
// their per-template metrics are listed.
func allTemplates() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.templates...)
	}
	return out
}

// perLayer are the metrics of single layers, reported by the traced run.
// A per-template metric reads 0 on a workload that does not run the
// template; a ratio over an event the workload never causes (commits,
// scans) reads 0 as well.
func perLayer() []metricSpec {
	out := []metricSpec{
		{Name: "engine.copy_s", Unit: "s", Better: "lower"},
		{Name: "engine.analyze_s", Unit: "s", Better: "lower"},
		{Name: "sql.parse_ms", Unit: "ms", Better: "lower"},
		{Name: "engine.compile_ms", Unit: "ms", Better: "lower"},
		{Name: "session.admit_wait_ms", Unit: "ms", Better: "lower"},
	}
	for _, t := range allTemplates() {
		out = append(out,
			metricSpec{Name: "engine.execute_ms." + t, Unit: "ms", Better: "lower"},
			metricSpec{Name: "optimizer.scan_columns." + t, Unit: "count", Better: "lower"},
			metricSpec{Name: "rewriter.degree." + t, Unit: "count", Better: "higher"})
	}
	return append(out,
		metricSpec{Name: "colstore.decoded_bytes_per_op", Unit: "B", Better: "lower"},
		metricSpec{Name: "compress.decode_bytes_per_op", Unit: "B", Better: "lower"},
		metricSpec{Name: "colstore.groups_touched_ratio", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "exec.rows_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "exec.steals_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "bufmgr.loads_per_scan", Unit: "count", Better: "lower"},
		metricSpec{Name: "bufmgr.hit_ratio", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "bufmgr.coop_attach_ratio", Unit: "ratio", Better: "higher"},
		metricSpec{Name: "pdt.merge_rows_per_read", Unit: "count", Better: "lower"},
		metricSpec{Name: "txn.pending_ops_peak", Unit: "count", Better: "lower"},
		metricSpec{Name: "txn.checkpoint_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "txn.conflicts", Unit: "count", Better: "lower"},
		metricSpec{Name: "txn.write_p50_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "txn.write_p90_ms", Unit: "ms", Better: "lower"},
		metricSpec{Name: "wal.fsyncs_per_commit", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "wal.group_commit_size", Unit: "count", Better: "higher"},
		metricSpec{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
		metricSpec{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
	)
}

// setupStats are the measurements of the set-up repetitions.
type setupStats struct {
	setup, copy, analyze []float64 // seconds, one per repetition
	liveMiB              float64
	storedRatio          float64
}

// endToEndValues computes the end-to-end metrics of an untraced pass:
// latency percentiles over all its reads, rates as the median over its
// windows.
func endToEndValues(windows []*phase, st setupStats) (map[string]float64, error) {
	reads := merge(windows).latencies(classRead)
	p50, err := percentile(reads, 50)
	if err != nil {
		return nil, fmt.Errorf("read_p50_ms: %w", err)
	}
	p90, err := percentile(reads, 90)
	if err != nil {
		return nil, fmt.Errorf("read_p90_ms: %w", err)
	}
	return map[string]float64{
		"setup_s":     median(st.setup),
		"ops_per_s":   medianOver(windows, opsPerSecond),
		"read_p50_ms": p50,
		"read_p90_ms": p90,
		"cpu_ms_per_op": medianOver(windows, func(p *phase) float64 {
			return ms(p.cpu) / float64(p.ops())
		}),
		"alloc_mb_per_op": medianOver(windows, func(p *phase) float64 {
			return float64(p.alloc) / (1 << 20) / float64(p.ops())
		}),
		"mem_live_mb":        st.liveMiB,
		"stored_bytes_ratio": st.storedRatio,
	}, nil
}

// plans are the EXPLAIN PHYSICAL texts of a workload's templates.
type plans map[string]string

var (
	scanLine    = regexp.MustCompile(`Scan\('[^']*', \[([^\]]*)\]`)
	degreeMatch = regexp.MustCompile(`degree=(\d+)`)
)

// scanColumns counts the columns the plan's scans read, $null indicators
// included. A parallel scan counts once, not once per worker.
func scanColumns(plan string) int {
	n := 0
	for _, line := range strings.Split(plan, "\n") {
		if strings.Contains(line, "ParallelScan(") && !strings.Contains(line, "worker 0/") {
			continue
		}
		if m := scanLine.FindStringSubmatch(line); m != nil {
			n += len(strings.Fields(m[1]))
		}
	}
	return n
}

// planDegree is the largest degree of parallelism in the plan (1 when
// it has no exchange).
func planDegree(plan string) int {
	d := 1
	for _, m := range degreeMatch.FindAllStringSubmatch(plan, -1) {
		if v, err := strconv.Atoi(m[1]); err == nil && v > d {
			d = v
		}
	}
	return d
}

// ratio is a/b, or 0 when nothing happened.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sumCounters adds every counter whose name starts with prefix.
func sumCounters(c map[string]float64, prefix string) float64 {
	var s float64
	for name, v := range c {
		if strings.HasPrefix(name, prefix) {
			s += v
		}
	}
	return s
}

// perLayerValues computes the per-layer metrics of a traced pass.
func perLayerValues(w *workload, tracedWindows, untracedWindows []*phase, st setupStats, tr *tracer, pl plans) map[string]float64 {
	traced := merge(tracedWindows)
	v := map[string]float64{}
	for _, s := range perLayer() {
		v[s.Name] = 0
	}
	v["engine.copy_s"] = median(st.copy)
	v["engine.analyze_s"] = median(st.analyze)

	// Spans of the traced phase, grouped per statement.
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	self := selfTimes(spans)
	var parse, compile, admit []float64
	execute := map[string][]float64{}
	perOp := map[int64]float64{} // compile time per statement
	for _, s := range spans {
		switch s.Name {
		case "sql.parse":
			parse = append(parse, ms(s.dur()))
		case "plan.bind", "optimizer.optimize", "xcompile.compile", "rewriter.rewrite", "physical.build":
			perOp[s.Op] += ms(s.dur())
		case "exec.execute":
			execute[s.Template] = append(execute[s.Template], ms(s.dur()))
		case "session.exec":
			if s.Template != "" && isRead(w, s.Template) {
				admit = append(admit, ms(self[s.ID]))
			}
		}
	}
	for _, c := range perOp {
		compile = append(compile, c)
	}
	v["sql.parse_ms"] = median(parse)
	v["engine.compile_ms"] = median(compile)
	v["session.admit_wait_ms"] = median(admit)
	for _, t := range w.templates {
		v["engine.execute_ms."+t] = median(execute[t])
		v["optimizer.scan_columns."+t] = float64(scanColumns(pl[t]))
		v["rewriter.degree."+t] = float64(planDegree(pl[t]))
	}

	c := traced.counters
	ops := float64(traced.ops())
	reads := float64(len(traced.latencies(classRead)))
	v["colstore.decoded_bytes_per_op"] = ratio(c["colstore_bytes_decompressed_total"], ops)
	v["compress.decode_bytes_per_op"] = ratio(c["compress_decode_bytes_total"], ops)
	scanned, skipped := c["colstore_groups_scanned_total"], c["colstore_groups_skipped_total"]
	v["colstore.groups_touched_ratio"] = ratio(scanned, scanned+skipped)
	v["exec.rows_per_op"] = ratio(sumCounters(c, "exec_rows_total"), ops)
	v["exec.steals_per_op"] = ratio(c["exec_morsel_steals_total"], ops)
	loads := c["bufmgr_lru_loads_total"] + c["bufmgr_coop_loads_total"]
	hits := c["bufmgr_lru_hits_total"] + c["bufmgr_coop_shared_hits_total"]
	v["bufmgr.loads_per_scan"] = ratio(loads, reads)
	v["bufmgr.hit_ratio"] = ratio(hits, hits+loads)
	v["bufmgr.coop_attach_ratio"] = ratio(c["bufmgr_coop_attach_total"], reads)
	v["pdt.merge_rows_per_read"] = ratio(c["pdt_merge_rows_total"], reads)
	v["txn.pending_ops_peak"] = float64(traced.pendingPeak)
	v["txn.checkpoint_ms"] = median(traced.latencies(classCheckpoint))
	v["txn.conflicts"] = c["txn_conflicts_total"]
	if writes := traced.latencies(classWrite); len(writes) > 0 {
		// A sample too small for the rule leaves the metric at 0.
		v["txn.write_p50_ms"], _ = percentile(writes, 50)
		v["txn.write_p90_ms"], _ = percentile(writes, 90)
	}
	v["wal.fsyncs_per_commit"] = ratio(c["wal_fsyncs_total"], c["txn_commits_total"])
	v["wal.group_commit_size"] = ratio(c["wal_appends_total"], c["wal_fsyncs_total"])
	var user float64
	for _, r := range traced.records {
		user += float64(r.op.userBytes)
	}
	v["wal.bytes_per_user_byte"] = ratio(c["wal_bytes_total"], user)
	v["runtime.gc_cycles_per_op"] = ratio(float64(traced.gcCycles), ops)
	v["runtime.gc_cpu_fraction"] = ratio(traced.gcCPU, traced.cpu.Seconds())
	v["trace.overhead_ratio"] = ratio(medianOver(tracedWindows, opsPerSecond), medianOver(untracedWindows, opsPerSecond))
	return v
}

func isRead(w *workload, template string) bool {
	for _, t := range w.templates {
		if t == template {
			return true
		}
	}
	return false
}
