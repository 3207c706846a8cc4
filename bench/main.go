// Command bench is the repository's benchmark. It embeds the
// engine, opens a fresh durable data directory, and sends every statement
// through session.Pool and Session.Exec, the path vwserver serves each
// connection on. It runs one workload from a seed, checks every answer,
// and prints the workload's metrics by name with their units; the last
// line of its output is one JSON object with the result.
//
//	bash bench/run.sh --workload report --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics, measured with tracing off.
// --trace 1 runs the same measured pass, then a second, traced pass of
// the same length and prints the per-layer metrics; the spans go to a
// JSON file beside the result file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// config is one run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	work      string // scratch directory root, inside the checkout
	out       string // directory for result and trace files
	lineitems int    // lineitem rows (orders: lineitems/4+1)
	setups    int    // set-up repetitions; setup_s is their median
}

// Defaults: 800K lineitem rows fill 49 row groups, the scale the
// ROADMAP's column-store targets are stated at.
const (
	defaultLineitems = 800_000
	defaultSetups    = 2
	// runTimeout stops a hung run inside the 180 s a run may take.
	runTimeout = 170 * time.Second
)

// provenance describes where and how a result was measured.
type provenance struct {
	Workload     string `json:"workload"`
	Seed         int64  `json:"seed"`
	Seconds      int    `json:"seconds"`
	Trace        bool   `json:"trace"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	Revision     string `json:"revision"`
	LineitemRows int    `json:"lineitem_rows"`
	OrdersRows   int    `json:"orders_rows"`
	BufferGroups string `json:"buffer_groups"`
	FlushPolicy  string `json:"flush_policy"`
	Sessions     int    `json:"sessions"`
	OpsPerRun    int    `json:"ops_per_run"`
	WarmupOps    int    `json:"warmup_ops"`
	Setups       int    `json:"setups"`
}

// flushPolicy is how the engine makes commits durable in these runs.
const flushPolicy = "WAL group-commit fsync per commit on the real file system (engine.OpenDir)"

// revision is the VCS revision the binary was built from, when known.
func revision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	return "unknown (not built from a git checkout)"
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	cfg := config{work: ".bench_build", out: filepath.Join(".bench_build", "results"),
		lineitems: defaultLineitems, setups: defaultSetups}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: report, shared-scan or trickle")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and op sequences")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal length of the measured pass")
	flag.IntVar(&trace, "trace", 0, "1 = also run a traced pass and print the per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be at least 1")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	res, err := run(ctx, cfg, os.Stdout)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run performs one benchmark run and returns its result; progress and the
// metrics with their units are written to log.
func run(ctx context.Context, cfg config, log io.Writer) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	work, err = filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()

	// Inputs: CSV and the op streams, all before any timing starts.
	ds, err := generate(work, cfg.seed, cfg.lineitems, w.lineitem, w.orders)
	if err != nil {
		return nil, err
	}
	measured := w.measuredOps(cfg.seconds)
	total := w.warmup + measured
	if cfg.trace {
		total += measured
	}
	streams, model := w.gen(ds, cfg.seed, total)

	prov := provenance{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Revision: revision(), LineitemRows: ds.lineitems, OrdersRows: ds.orders,
		BufferGroups: "engine default", FlushPolicy: flushPolicy, Sessions: w.sessions,
		OpsPerRun: measured * w.sessions, WarmupOps: w.warmup * w.sessions, Setups: cfg.setups,
	}
	if w.bufferGroups > 0 {
		prov.BufferGroups = fmt.Sprint(w.bufferGroups)
	}
	provJSON, err := json.Marshal(prov)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# provenance: %s\n", provJSON)

	var tr *tracer
	if cfg.trace {
		tr = newTracer(t0)
	}
	in, st, err := setup(ctx, cfg, w, ds, work, tr, log)
	if err != nil {
		return nil, err
	}
	defer in.close()

	r := &runner{in: in, w: w}
	var all []record
	slice := func(from, to int) [][]*op {
		out := make([][]*op, len(streams))
		for i, s := range streams {
			out[i] = s[from:to]
		}
		return out
	}
	warm, err := r.run(ctx, slice(0, w.warmup), nil)
	if err != nil {
		return nil, err
	}
	all = append(all, warm.records...)
	if w.checkpointEvery > 0 {
		// Start the measured pass from a checkpointed table, as every
		// later window does.
		all = append(all, r.exec(ctx, in.sessions[0], checkpointOp, nil))
	}
	// timedPass runs the measured statements from index from on, one
	// window after the other.
	timedPass := func(from int, tr *tracer) ([]*phase, error) {
		per := measured / w.windows
		var out []*phase
		for i := 0; i < w.windows; i++ {
			p, err := r.run(ctx, slice(from+i*per, from+(i+1)*per), tr)
			if err != nil {
				return nil, err
			}
			all = append(all, p.records...)
			out = append(out, p)
		}
		return out, nil
	}
	untraced, err := timedPass(w.warmup, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# measured pass: %d statements in %.3f s\n", merge(untraced).ops(), merge(untraced).wall.Seconds())

	values, err := endToEndValues(untraced, st)
	if err != nil {
		return nil, err
	}
	specs := endToEnd
	if cfg.trace {
		pl := plans{}
		for _, t := range w.templates {
			for _, o := range streams[0] {
				if o.template == t {
					res, err := in.sessions[0].Exec(ctx, "EXPLAIN PHYSICAL "+o.sql)
					if err != nil {
						return nil, fmt.Errorf("explaining %s: %w", t, err)
					}
					pl[t] = res.Text
					break
				}
			}
		}
		traced, err := timedPass(w.warmup+measured, tr)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "# traced pass: %d statements in %.3f s\n", merge(traced).ops(), merge(traced).wall.Seconds())
		values = perLayerValues(w, traced, untraced, st, tr, pl)
		specs = perLayer()
	}
	if model != nil {
		final := r.exec(ctx, in.sessions[0], model.finalCheck(), nil)
		all = append(all, final)
	}

	res := &result{Attempted: len(all), Metrics: map[string]metricValue{}}
	for _, rec := range all {
		if err := rec.failure(); err != nil {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Fprintf(log, "# FAILED %s: %v\n#   %s\n", rec.op.template, err, rec.op.sql)
			}
		}
	}
	res.Correct = res.Failed == 0
	for _, s := range specs {
		res.Metrics[s.Name] = metricValue{Value: values[s.Name], Unit: s.Unit}
		fmt.Fprintf(log, "%-40s %14.6g %s\n", s.Name, values[s.Name], s.Unit)
	}
	fmt.Fprintf(log, "# statements attempted=%d failed=%d\n", res.Attempted, res.Failed)

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d", w.name, cfg.seed, trace01(cfg.trace)))
	data, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Result     *result    `json:"result"`
	}{prov, res})
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".json", append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.write(base+".spans.json", prov); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setup loads the workload's tables cfg.setups times, each into a fresh
// data directory, and keeps the last instance for the run. It measures
// the live heap the loaded data holds and the bytes it occupies on disk.
func setup(ctx context.Context, cfg config, w *workload, ds *dataset, work string, tr *tracer, log io.Writer) (*instance, setupStats, error) {
	var st setupStats
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	baseHeap := m.HeapAlloc
	var in *instance
	for i := 0; i < cfg.setups; i++ {
		if in != nil {
			in.close()
			if err := os.RemoveAll(in.dir); err != nil {
				return nil, st, err
			}
		}
		var err error
		in, err = setupInstance(ctx, filepath.Join(work, fmt.Sprintf("db%d", i)), w, ds, tr)
		if err != nil {
			return nil, st, err
		}
		st.setup = append(st.setup, (in.copyDur + in.analyzeDur).Seconds())
		st.copy = append(st.copy, in.copyDur.Seconds())
		st.analyze = append(st.analyze, in.analyzeDur.Seconds())
		fmt.Fprintf(log, "# set-up %d: copy %.3f s, analyze %.3f s\n", i+1, in.copyDur.Seconds(), in.analyzeDur.Seconds())
	}
	runtime.GC()
	runtime.ReadMemStats(&m)
	st.liveMiB = (float64(m.HeapAlloc) - float64(baseHeap)) / (1 << 20)
	stored, err := dirBytes(in.dir)
	if err != nil {
		in.close()
		return nil, st, err
	}
	st.storedRatio = float64(stored) / float64(ds.csvBytes)
	return in, st, nil
}

func trace01(b bool) int {
	if b {
		return 1
	}
	return 0
}
