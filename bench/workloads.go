package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"vectorwise/internal/engine"
	"vectorwise/internal/types"
)

// opClass says which end-to-end latency a statement feeds.
type opClass int

const (
	classRead opClass = iota
	classWrite
	classCheckpoint
)

// op is one statement a session sends, with the check of its answer. The
// check is computed when the op is generated, from the oracle and (for
// trickle) the session's model of its own writes, so running the op never
// consults the engine for the expected answer.
type op struct {
	template string
	class    opClass
	sql      string
	check    func(*engine.Result) error
	// userBytes is the CSV size of the user data a write carries: the
	// rows it inserts, the value it sets, or the key it deletes.
	userBytes int64
}

// workload describes one traffic mix.
type workload struct {
	name string
	why  string
	// sessions run closed loops side by side (at most nproc = 2).
	sessions int
	// lineitem and orders select the tables the workload loads.
	lineitem, orders bool
	// ordersOrderBy clusters the orders load (COPY ... ORDER BY).
	ordersOrderBy string
	// bufferGroups is the buffer-pool capacity in row groups (0 = the
	// engine default), the deployment setting vwserver -buffer-groups sets.
	bufferGroups int
	// templates lists the read templates whose per-layer metrics this
	// workload reports.
	templates []string
	// minOps is the fewest measured statements per session: enough for
	// read_p90_ms to have ten samples beyond it.
	minOps int
	// block is the length of the op pattern that repeats with the exact
	// template mix.
	block int
	// windows is the number of equal slices a timed pass runs in, each a
	// whole number of blocks; rates are the median over the slices.
	windows int
	// opsPerSecond sizes the measured phase: --seconds times this many
	// statements per session, at least minOps. On the reference machine
	// (2 vCPU) shared-scan and trickle then measure about --seconds;
	// report's floor of 100 reads takes about 22 s.
	opsPerSecond int
	// checkpointEvery runs CHECKPOINT orders after every this many writes
	// of a window (0 = never). Two sessions write 20 times per block each,
	// so every trickle window ends with exactly one checkpoint.
	checkpointEvery int64
	// warmup is the number of leading ops per session run before timing.
	warmup int
	// gen builds each session's op stream of n ops (warm-up included).
	gen func(ds *dataset, seed int64, n int) ([][]*op, *trickleModel)
}

var workloads = []*workload{
	{
		name:         "report",
		why:          "one serial session rotating scan/filter/q1/join/topn over clean tables: kernel and materialization cost; wal, pdt and sharing idle",
		sessions:     1,
		lineitem:     true,
		orders:       true,
		templates:    []string{"scan", "filter", "q1", "join", "topn"},
		minOps:       100,
		block:        5,
		windows:      5,
		opsPerSecond: 4,
		warmup:       5,
		gen:          genReport,
	},
	{
		name:         "shared-scan",
		why:          "two sessions of PARALLEL=2 full and range scans of lineitem through an 8-group buffer pool: buffering policy sets loads per query",
		sessions:     2,
		lineitem:     true,
		bufferGroups: 8,
		templates:    []string{"shared_full", "shared_range"},
		minOps:       50,
		block:        1,
		windows:      5,
		opsPerSecond: 8,
		warmup:       2,
		gen:          genSharedScan,
	},
	{
		name:            "trickle",
		why:             "two sessions of small inserts, point updates and deletes beside range reads and aggregates on orders, with checkpoints: wal, txn and pdt work",
		sessions:        2,
		orders:          true,
		ordersOrderBy:   "o_orderdate",
		templates:       []string{"trickle_range", "trickle_agg"},
		minOps:          100,
		block:           len(trickleDeck),
		windows:         6,
		opsPerSecond:    24,
		checkpointEvery: 40,
		warmup:          5,
		gen:             genTrickle,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// measuredOps is the number of measured statements per session for a run
// of the given length, rounded up to whole blocks in every window.
func (w *workload) measuredOps(seconds int) int {
	n := max(seconds*w.opsPerSecond, w.minOps)
	if unit := w.block * w.windows; n%unit != 0 {
		n += unit - n%unit
	}
	return n
}

// sessionRand gives each (workload, session) its own seeded stream.
func sessionRand(seed int64, salt string, session int) *rand.Rand {
	h := int64(0)
	for _, c := range salt {
		h = h*31 + int64(c)
	}
	return rand.New(rand.NewSource(seed*1_000_003 + h*101 + int64(session)))
}

// --- report ---

// q1Date is TPC-H Q1's base date; each q1 op subtracts a seeded delta.
var q1Date = int(types.DateFromYMD(1998, 12, 1) - epoch1992)

func genReport(ds *dataset, seed int64, n int) ([][]*op, *trickleModel) {
	rng := sessionRand(seed, "report", 0)
	li := ds.li
	ops := make([]*op, 0, n)
	for i := 0; len(ops) < n; i++ {
		var o *op
		switch i % 5 {
		case 0:
			o = &op{template: "scan",
				sql:   "SELECT COUNT(*), SUM(l_quantity), SUM(l_extendedprice) FROM lineitem",
				check: expectRow([]any{li.count, li.sumQty, li.sumPrice})}
		case 1:
			cut, qty := days-1-rng.Intn(120), 20+rng.Intn(11)
			var want int64
			for d := 0; d <= cut; d++ {
				for q := 1; q < qty; q++ {
					want += li.dayQtyCount[d][q]
				}
			}
			o = &op{template: "filter",
				sql: fmt.Sprintf("SELECT COUNT(*) FROM lineitem WHERE l_shipdate <= DATE '%s' AND l_quantity < %d",
					dayString(cut), qty),
				check: expectRow([]any{want})}
		case 2:
			cut := q1Date - 60 - rng.Intn(61)
			want := map[string][]any{}
			for g, key := range q1Groups {
				var a q1Acc
				for d := 0; d <= cut; d++ {
					x := li.q1[g][d]
					a.count += x.count
					a.qty += x.qty
					a.discPrice += x.discPrice
					a.price += x.price
				}
				if a.count > 0 {
					want[key[0]+"|"+key[1]] = []any{a.count, a.qty, a.discPrice, a.price / float64(a.count)}
				}
			}
			o = &op{template: "q1",
				sql: fmt.Sprintf(`SELECT l_returnflag, l_linestatus, COUNT(*), SUM(l_quantity),
	SUM(l_extendedprice * (1 - l_discount)), AVG(l_extendedprice)
	FROM lineitem WHERE l_shipdate <= DATE '%s'
	GROUP BY l_returnflag, l_linestatus`, dayString(cut)),
				check: expectGroups(2, want)}
		case 3:
			want := map[string][]any{}
			for p, c := range li.joinCount {
				want[p] = []any{c}
			}
			o = &op{template: "join",
				sql: `SELECT o_orderpriority, COUNT(*) FROM lineitem
	JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority`,
				check: expectGroups(1, want)}
		case 4:
			o = &op{template: "topn",
				sql: fmt.Sprintf(`SELECT l_orderkey, l_extendedprice FROM lineitem
	ORDER BY l_extendedprice DESC, l_orderkey LIMIT %d`, topN),
				check: expectTop(li.top)}
		}
		ops = append(ops, o)
	}
	return [][]*op{ops}, nil
}

// --- shared-scan ---

func genSharedScan(ds *dataset, seed int64, n int) ([][]*op, *trickleModel) {
	li := ds.li
	out := make([][]*op, 2)
	for s := range out {
		rng := sessionRand(seed, "shared-scan", s)
		for i := 0; i < n; i++ {
			// The warm-up pair runs one of each template.
			full := rng.Intn(2) == 0
			if i < 2 {
				full = i == 0
			}
			if full {
				out[s] = append(out[s], &op{template: "shared_full",
					sql:   "SELECT COUNT(*), SUM(l_quantity), SUM(l_extendedprice) FROM lineitem WITH (PARALLEL=2)",
					check: expectRow([]any{li.count, li.sumQty, li.sumPrice})})
				continue
			}
			lo := rng.Intn(days / 2)
			hi := lo + days/10 + rng.Intn(days/3)
			var cnt, qty int64
			for d := lo; d <= hi && d < days; d++ {
				cnt += li.dayCount[d]
				qty += li.dayQty[d]
			}
			want := []any{cnt, qty}
			if cnt == 0 {
				want = []any{int64(0), nil}
			}
			out[s] = append(out[s], &op{template: "shared_range",
				sql: fmt.Sprintf("SELECT COUNT(*), SUM(l_quantity) FROM lineitem WHERE l_shipdate BETWEEN DATE '%s' AND DATE '%s' WITH (PARALLEL=2)",
					dayString(lo), dayString(hi)),
				check: expectRow(want)})
		}
	}
	return out, nil
}

// --- trickle ---

// Trickle sessions own disjoint keys: session s owns half of the loaded
// orders and inserts keys from insertBase(s) up. No two sessions ever
// write the same row, so there are no write-write conflicts and the final
// table is the same under any interleaving.
func insertBase(s int) int64 { return int64(s+1) * 1_000_000_000 }

// insertDay is the date inserted orders carry: the day after the loaded
// range, so appends keep o_orderdate ascending.
const insertDay = days

// orderRow is the model's view of one order the session owns.
type orderRow struct {
	cents int64
	day   int16
	prio  uint8
	live  bool
}

// sessionModel tracks the rows one trickle session owns, so the answer to
// each of its reads (restricted to its own keys) is known when the read is
// generated.
type sessionModel struct {
	lo, hi   int64      // loaded keys owned: [lo, hi]
	base     []orderRow // indexed by key-lo
	ins      []orderRow // indexed by key-insertBase
	insBase  int64
	dayCount [days + 1]int64
	dayCents [days + 1]int64
	prio     [5][2]int64 // count, cents per priority
	count    int64
	cents    int64
}

// trickleModel is every session's model; the final table is their union.
type trickleModel struct {
	sessions []*sessionModel
}

func (m *sessionModel) add(r orderRow, sign int64) {
	m.dayCount[r.day] += sign
	m.dayCents[r.day] += sign * r.cents
	m.prio[r.prio][0] += sign
	m.prio[r.prio][1] += sign * r.cents
	m.count += sign
	m.cents += sign * r.cents
}

func (m *sessionModel) row(i int) *orderRow {
	if i < len(m.base) {
		return &m.base[i]
	}
	return &m.ins[i-len(m.base)]
}

func (m *sessionModel) key(i int) int64 {
	if i < len(m.base) {
		return m.lo + int64(i)
	}
	return m.insBase + int64(i-len(m.base))
}

// pickLive returns the index of a random live row.
func (m *sessionModel) pickLive(rng *rand.Rand) int {
	for {
		i := rng.Intn(len(m.base) + len(m.ins))
		if m.row(i).live {
			return i
		}
	}
}

// ownKeys is the predicate selecting the session's rows.
func (m *sessionModel) ownKeys() string {
	return fmt.Sprintf("(o_orderkey BETWEEN %d AND %d OR o_orderkey BETWEEN %d AND %d)",
		m.lo, m.hi, m.insBase, m.insBase+999_999_999)
}

func newSessionModel(ord *ordersOracle, s, sessions int) *sessionModel {
	n := len(ord.day)
	per := n / sessions
	lo, hi := s*per, (s+1)*per
	if s == sessions-1 {
		hi = n
	}
	m := &sessionModel{lo: int64(lo) + 1, hi: int64(hi), insBase: insertBase(s)}
	for k := lo; k < hi; k++ {
		r := orderRow{cents: ord.cents[k], day: ord.day[k], prio: ord.priority[k], live: true}
		m.base = append(m.base, r)
		m.add(r, 1)
	}
	return m
}

// trickleTemplates are the trickle op templates; the warm-up runs each
// once, in this order.
var trickleTemplates = []string{"trickle_range", "trickle_agg", "trickle_insert", "trickle_update", "trickle_delete"}

// trickleDeck is the trickle op mix, dealt in a seeded order per block:
// 16 range reads, 4 aggregates, 14 insert batches, 3 updates and 3
// deletes (20 writes). Reads split 4:1 and writes 14:6, so p50 and p90 of each class
// fall inside one template's distribution.
var trickleDeck = func() []string {
	var deck []string
	for i, n := range []int{16, 4, 14, 3, 3} {
		for j := 0; j < n; j++ {
			deck = append(deck, trickleTemplates[i])
		}
	}
	return deck
}()

func genTrickle(ds *dataset, seed int64, n int) ([][]*op, *trickleModel) {
	const sessions = 2
	model := &trickleModel{}
	out := make([][]*op, sessions)
	for s := 0; s < sessions; s++ {
		m := newSessionModel(ds.ord, s, sessions)
		model.sessions = append(model.sessions, m)
		rng := sessionRand(seed, "trickle", s)
		deck := append([]string(nil), trickleDeck...)
		for i := 0; i < n; i++ {
			t := ""
			if i < len(trickleTemplates) {
				t = trickleTemplates[i]
			} else {
				j := (i - len(trickleTemplates)) % len(deck)
				if j == 0 {
					rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
				}
				t = deck[j]
			}
			out[s] = append(out[s], m.next(t, rng))
		}
	}
	return out, model
}

// next generates one trickle op and applies its effect to the model.
func (m *sessionModel) next(t string, rng *rand.Rand) *op {
	switch t {
	case "trickle_range":
		lo := rng.Intn(days - 25)
		hi := lo + 25
		var cnt, cents int64
		for d := lo; d <= hi; d++ {
			cnt += m.dayCount[d]
			cents += m.dayCents[d]
		}
		return &op{template: t, class: classRead,
			sql: fmt.Sprintf("SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_orderdate BETWEEN DATE '%s' AND DATE '%s' AND %s",
				dayString(lo), dayString(hi), m.ownKeys()),
			check: expectRow([]any{cnt, centsSum(cnt, cents)})}
	case "trickle_agg":
		want := map[string][]any{}
		for p, a := range m.prio {
			if a[0] > 0 {
				want[priorities[p]] = []any{a[0], centsSum(a[0], a[1])}
			}
		}
		return &op{template: t, class: classRead,
			sql: fmt.Sprintf("SELECT o_orderpriority, COUNT(*), SUM(o_totalprice) FROM orders WHERE %s GROUP BY o_orderpriority WITH (PARALLEL=2)",
				m.ownKeys()),
			check: expectGroups(1, want)}
	case "trickle_insert":
		rows := 1 + rng.Intn(4)
		var b strings.Builder
		var user int64
		b.WriteString("INSERT INTO orders VALUES ")
		for j := 0; j < rows; j++ {
			r := orderRow{cents: int64(rng.Intn(500000)), day: insertDay, prio: uint8(rng.Intn(len(priorities))), live: true}
			key := m.insBase + int64(len(m.ins))
			cust := 1 + rng.Intn(20000)
			m.ins = append(m.ins, r)
			m.add(r, 1)
			if j > 0 {
				b.WriteString(", ")
			}
			fields := fmt.Sprintf("%d,%d,%s,%s,%s", key, cust, centsString(r.cents), dayString(insertDay), priorities[r.prio])
			user += int64(len(fields)) + 1
			fmt.Fprintf(&b, "(%d, %d, %s, DATE '%s', '%s')", key, cust, centsString(r.cents), dayString(insertDay), priorities[r.prio])
		}
		return &op{template: t, class: classWrite, sql: b.String(), check: expectAffected(int64(rows)), userBytes: user}
	case "trickle_update":
		i := m.pickLive(rng)
		r := m.row(i)
		m.add(*r, -1)
		r.cents = int64(rng.Intn(500000))
		m.add(*r, 1)
		v := centsString(r.cents)
		return &op{template: t, class: classWrite,
			sql:   fmt.Sprintf("UPDATE orders SET o_totalprice = %s WHERE o_orderkey = %d", v, m.key(i)),
			check: expectAffected(1), userBytes: int64(len(v))}
	case "trickle_delete":
		i := m.pickLive(rng)
		r := m.row(i)
		m.add(*r, -1)
		r.live = false
		k := fmt.Sprint(m.key(i))
		return &op{template: t, class: classWrite,
			sql:   "DELETE FROM orders WHERE o_orderkey = " + k,
			check: expectAffected(1), userBytes: int64(len(k))}
	}
	panic("unknown trickle template " + t)
}

// finalCheck is the statement that checks the whole orders table against
// the union of the session models after the run.
func (tm *trickleModel) finalCheck() *op {
	var cnt, cents int64
	for _, m := range tm.sessions {
		cnt += m.count
		cents += m.cents
	}
	return &op{template: "trickle_final", class: classRead,
		sql:   "SELECT COUNT(*), SUM(o_totalprice) FROM orders",
		check: expectRow([]any{cnt, centsSum(cnt, cents)})}
}

// checkpointOp is the statement trickle runs every checkpointEvery writes.
var checkpointOp = &op{template: "checkpoint", class: classCheckpoint, sql: "CHECKPOINT orders"}

func centsString(c int64) string { return fmt.Sprintf("%d.%02d", c/100, c%100) }

// centsSum is the expected SUM of prices: NULL over no rows.
func centsSum(count, cents int64) any {
	if count == 0 {
		return nil
	}
	return float64(cents) / 100
}

// --- answer checks ---

// floatTolerance bounds the relative error allowed on float sums, whose
// rounding depends on summation order.
const floatTolerance = 1e-9

// matchValue compares one result value with an expected int64, float64
// or nil (NULL).
func matchValue(got types.Value, want any) error {
	switch w := want.(type) {
	case nil:
		if !got.Null {
			return fmt.Errorf("got %v, want NULL", got)
		}
	case int64:
		if got.Null || (got.Kind != types.KindInt64 && got.Kind != types.KindInt32) || got.I64 != w {
			return fmt.Errorf("got %v, want %d", got, w)
		}
	case float64:
		var g float64
		switch {
		case got.Null:
			return fmt.Errorf("got NULL, want %v", w)
		case got.Kind == types.KindFloat64:
			g = got.F64
		case got.Kind == types.KindInt64 || got.Kind == types.KindInt32:
			g = float64(got.I64)
		default:
			return fmt.Errorf("got %v, want %v", got, w)
		}
		if math.Abs(g-w) > floatTolerance*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("got %v, want %v", g, w)
		}
	default:
		panic(fmt.Sprintf("unsupported expected value %T", want))
	}
	return nil
}

func matchRow(got []types.Value, want []any) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d columns, want %d", len(got), len(want))
	}
	for i := range want {
		if err := matchValue(got[i], want[i]); err != nil {
			return fmt.Errorf("column %d: %w", i, err)
		}
	}
	return nil
}

// expectRow checks a single-row answer.
func expectRow(want []any) func(*engine.Result) error {
	return func(res *engine.Result) error {
		if len(res.Rows) != 1 {
			return fmt.Errorf("got %d rows, want 1", len(res.Rows))
		}
		return matchRow(res.Rows[0], want)
	}
}

// expectGroups checks a grouped answer in any row order: the first keys
// columns (strings) identify the group, the rest must match want[group].
func expectGroups(keys int, want map[string][]any) func(*engine.Result) error {
	return func(res *engine.Result) error {
		if len(res.Rows) != len(want) {
			return fmt.Errorf("got %d groups, want %d", len(res.Rows), len(want))
		}
		for _, row := range res.Rows {
			if len(row) < keys {
				return fmt.Errorf("row %v lacks its group keys", row)
			}
			parts := make([]string, keys)
			for i := range parts {
				parts[i] = row[i].Str
			}
			k := strings.Join(parts, "|")
			w, ok := want[k]
			if !ok {
				return fmt.Errorf("unexpected group %q", k)
			}
			if err := matchRow(row[keys:], w); err != nil {
				return fmt.Errorf("group %q: %w", k, err)
			}
		}
		return nil
	}
}

// expectTop checks the topn answer row by row against the oracle's heap.
func expectTop(h topHeap) func(*engine.Result) error {
	rows := append([]topRow(nil), h...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].before(rows[j]) })
	return func(res *engine.Result) error {
		if len(res.Rows) != len(rows) {
			return fmt.Errorf("got %d rows, want %d", len(res.Rows), len(rows))
		}
		for i, r := range rows {
			if err := matchRow(res.Rows[i], []any{r.key, r.price}); err != nil {
				return fmt.Errorf("row %d: %w", i, err)
			}
		}
		return nil
	}
}

// expectAffected checks a DML statement's affected-row count.
func expectAffected(n int64) func(*engine.Result) error {
	return func(res *engine.Result) error {
		if res.Affected != n {
			return fmt.Errorf("%d rows affected, want %d", res.Affected, n)
		}
		return nil
	}
}
