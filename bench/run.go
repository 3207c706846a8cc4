package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	runtimemetrics "runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vectorwise/internal/datagen"
	"vectorwise/internal/engine"
	"vectorwise/internal/metrics"
	"vectorwise/internal/session"
)

// record is one executed statement.
type record struct {
	op  *op
	dur time.Duration
	res *engine.Result
	err error
}

// failure is the reason a record counts as failed, or nil.
func (r record) failure() error {
	if r.err != nil {
		return r.err
	}
	if r.op.check != nil {
		return r.op.check(r.res)
	}
	return nil
}

// phase is what one timed slice of the op streams measured.
type phase struct {
	records  []record
	wall     time.Duration
	cpu      time.Duration // user+sys of the process
	alloc    uint64        // bytes allocated
	gcCycles uint32
	gcCPU    float64 // seconds of CPU the collector used
	counters map[string]float64
	// pendingPeak is the largest committed-but-unmerged delta count seen
	// after a write (traced phase only).
	pendingPeak int
}

// ops counts the statements the phase completed or attempted.
func (p *phase) ops() int { return len(p.records) }

// latencies returns the client latencies of one class, in ms.
func (p *phase) latencies(c opClass) []float64 {
	var out []float64
	for _, r := range p.records {
		if r.op.class == c {
			out = append(out, ms(r.dur))
		}
	}
	return out
}

// instance is one set-up database with its sessions.
type instance struct {
	dir      string
	db       *engine.DB
	pool     *session.Pool
	sessions []*session.Session
	// setup timings of this instance's statements
	copyDur, analyzeDur time.Duration
}

func (in *instance) close() {
	for _, s := range in.sessions {
		s.Close()
	}
	in.pool.Close()
	in.db.Close()
}

// setupInstance opens a fresh durable data directory and loads the
// workload's tables through a session: COPY of each table from the
// pre-written CSV, then ANALYZE. Only the COPY and ANALYZE statements are
// timed; opening the directory and creating the tables are not set-up
// work the engine could move.
func setupInstance(ctx context.Context, dir string, w *workload, ds *dataset, tr *tracer) (*instance, error) {
	db, _, err := engine.OpenDir(dir)
	if err != nil {
		return nil, fmt.Errorf("opening %s: %w", dir, err)
	}
	db.BufferGroups = w.bufferGroups
	in := &instance{dir: dir, db: db, pool: session.NewPool(db, session.Config{})}
	for i := 0; i < w.sessions; i++ {
		s, err := in.pool.Open()
		if err != nil {
			in.close()
			return nil, err
		}
		in.sessions = append(in.sessions, s)
	}
	s := in.sessions[0]
	type load struct{ table, ddl, csv, orderBy string }
	var loads []load
	if w.orders {
		loads = append(loads, load{"orders", datagen.OrdersDDL, ds.ordersCSV, w.ordersOrderBy})
	}
	if w.lineitem {
		loads = append(loads, load{"lineitem", datagen.LineitemDDL, ds.lineitemCSV, ""})
	}
	timed := func(name string, sql string, rows int64, into *time.Duration) error {
		start := time.Now()
		res, err := s.Exec(ctx, sql)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("%s: %w", sql, err)
		}
		if rows >= 0 && res.Affected != rows {
			return fmt.Errorf("%s: loaded %d rows, want %d", sql, res.Affected, rows)
		}
		*into += end.Sub(start)
		if tr != nil {
			tr.add(0, 0, name, "", start, end)
		}
		return nil
	}
	for _, l := range loads {
		if _, err := s.Exec(ctx, l.ddl); err != nil {
			in.close()
			return nil, fmt.Errorf("creating %s: %w", l.table, err)
		}
	}
	for _, l := range loads {
		rows := int64(ds.orders)
		if l.table == "lineitem" {
			rows = int64(ds.lineitems)
		}
		sql := fmt.Sprintf("COPY %s FROM '%s'", l.table, l.csv)
		if l.orderBy != "" {
			sql += " ORDER BY " + l.orderBy
		}
		if err := timed("engine.copy", sql, rows, &in.copyDur); err != nil {
			in.close()
			return nil, err
		}
	}
	for _, l := range loads {
		if err := timed("engine.analyze", "ANALYZE "+l.table, -1, &in.analyzeDur); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// runner drives the op streams of one instance.
type runner struct {
	in *instance
	w  *workload
	// ckpt quiesces DML for CHECKPOINT: the engine aborts a writer whose
	// snapshot predates a checkpoint (txn.ErrSnapshotTooOld), so writes
	// hold it shared and the checkpoint holds it exclusively. Waiting for
	// it happens outside the timed call.
	ckpt sync.RWMutex
	// writes counts the writes of the current window.
	writes atomic.Int64
	nextOp atomic.Int64
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUMetric is the runtime's estimate of CPU time spent collecting.
const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

// counterSnapshot reads every counter of the engine's registry.
func counterSnapshot() map[string]float64 {
	out := map[string]float64{}
	for _, s := range metrics.Default.Snapshot() {
		if s.Kind == "counter" {
			out[s.Name] = s.Value
		}
	}
	return out
}

// run executes one slice of each session's op stream as a closed loop per
// session, all sessions side by side, and measures it.
func (r *runner) run(ctx context.Context, streams [][]*op, tr *tracer) (*phase, error) {
	p := &phase{}
	r.writes.Store(0)
	var ms0, ms1 runtime.MemStats
	rt0 := []runtimemetrics.Sample{{Name: gcCPUMetric}}
	before := counterSnapshot()
	runtime.ReadMemStats(&ms0)
	runtimemetrics.Read(rt0)
	cpu0 := cpuTime()
	start := time.Now()

	recs := make([][]record, len(streams))
	peaks := make([]int, len(streams))
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i], peaks[i] = r.session(ctx, r.in.sessions[i], streams[i], tr)
		}(i)
	}
	wg.Wait()

	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	rt1 := []runtimemetrics.Sample{{Name: gcCPUMetric}}
	runtimemetrics.Read(rt1)
	runtime.ReadMemStats(&ms1)
	after := counterSnapshot()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	p.gcCycles = ms1.NumGC - ms0.NumGC
	p.gcCPU = rt1[0].Value.Float64() - rt0[0].Value.Float64()
	p.counters = map[string]float64{}
	for name, v := range after {
		p.counters[name] = v - before[name]
	}
	for i := range recs {
		p.records = append(p.records, recs[i]...)
		p.pendingPeak = max(p.pendingPeak, peaks[i])
	}
	return p, nil
}

// session runs one session's ops in order, each after the previous one
// returned.
func (r *runner) session(ctx context.Context, s *session.Session, ops []*op, tr *tracer) ([]record, int) {
	recs := make([]record, 0, len(ops)+1)
	peak := 0
	for _, o := range ops {
		if ctx.Err() != nil {
			break
		}
		if o.class != classWrite {
			recs = append(recs, r.exec(ctx, s, o, tr))
			continue
		}
		r.ckpt.RLock()
		recs = append(recs, r.exec(ctx, s, o, tr))
		r.ckpt.RUnlock()
		if tr != nil {
			if st, err := r.in.db.Store("orders"); err == nil {
				peak = max(peak, st.PendingOps())
			}
		}
		if n := r.writes.Add(1); r.w.checkpointEvery > 0 && n%r.w.checkpointEvery == 0 {
			r.ckpt.Lock()
			recs = append(recs, r.exec(ctx, s, checkpointOp, tr))
			r.ckpt.Unlock()
		}
	}
	return recs, peak
}

// exec times one Session.Exec call at the client.
func (r *runner) exec(ctx context.Context, s *session.Session, o *op, tr *tracer) record {
	id := r.nextOp.Add(1)
	start := time.Now()
	res, err := s.Exec(ctx, o.sql)
	end := time.Now()
	if tr != nil {
		name := "session.exec"
		if o.class == classCheckpoint {
			name = "txn.checkpoint"
		}
		tr.statement(r.in.db, id, name, o, start, end)
	}
	return record{op: o, dur: end.Sub(start), res: res, err: err}
}

// merge sums the measurements of consecutive phases.
func merge(ps []*phase) *phase {
	m := &phase{counters: map[string]float64{}}
	for _, p := range ps {
		m.records = append(m.records, p.records...)
		m.wall += p.wall
		m.cpu += p.cpu
		m.alloc += p.alloc
		m.gcCycles += p.gcCycles
		m.gcCPU += p.gcCPU
		for k, v := range p.counters {
			m.counters[k] += v
		}
		m.pendingPeak = max(m.pendingPeak, p.pendingPeak)
	}
	return m
}

// medianOver is the median of f over the phases.
func medianOver(ps []*phase, f func(*phase) float64) float64 {
	xs := make([]float64, len(ps))
	for i, p := range ps {
		xs[i] = f(p)
	}
	return median(xs)
}

func opsPerSecond(p *phase) float64 { return float64(p.ops()) / p.wall.Seconds() }
