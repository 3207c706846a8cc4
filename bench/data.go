package main

import (
	"bufio"
	"container/heap"
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"

	"vectorwise/internal/datagen"
	"vectorwise/internal/types"
)

// days is the width of datagen's date domain: every generated date is
// 1992-01-01 plus [0, days).
const days = 2557

// epoch1992 is day 0 of the generated date domain.
var epoch1992 = types.DateFromYMD(1992, 1, 1)

// dayString renders a day offset of the generated domain as a DATE literal.
func dayString(day int) string {
	return types.NewDate(epoch1992 + int32(day)).String()
}

// dataset is the generated CSV input of one run plus the answers the
// benchmark checks query results against. The oracle is filled while the
// CSV is written, from the same rows, so it never depends on the engine.
type dataset struct {
	lineitemCSV string // absolute path; "" when the workload has no lineitem
	ordersCSV   string
	csvBytes    int64 // bytes of CSV user data written
	lineitems   int
	orders      int
	li          *lineitemOracle
	ord         *ordersOracle
}

// lineitemOracle holds the lineitem aggregates the report and shared-scan
// templates ask for. Counts and integer sums are exact; float sums are
// accumulated per day and compared with a relative tolerance.
type lineitemOracle struct {
	count    int64
	sumQty   int64
	sumPrice float64
	dayCount [days]int64
	dayQty   [days]int64
	// dayQtyCount[d][q] counts rows shipped on day d with quantity q.
	dayQtyCount [days][51]int64
	// q1[g][d] aggregates Q1 group g (one of the 3x2 returnflag,
	// linestatus pairs of q1Groups) on day d.
	q1 [6][days]q1Acc
	// joinCount counts lineitem rows per o_orderpriority of their order
	// (when orders are loaded too).
	joinCount map[string]int64
	top       topHeap
}

type q1Acc struct {
	count     int64
	qty       int64
	discPrice float64
	price     float64
}

// q1Groups enumerates the (returnflag, linestatus) groups of TPC-H Q1.
var q1Groups = func() [][2]string {
	var g [][2]string
	for _, f := range datagen.ReturnFlags {
		for _, s := range datagen.LineStatuses {
			g = append(g, [2]string{f, s})
		}
	}
	return g
}()

func q1Group(flag, status string) int {
	for i, g := range q1Groups {
		if g[0] == flag && g[1] == status {
			return i
		}
	}
	return -1
}

// topN is the LIMIT of the report workload's topn template.
const topN = 100

// topRow is one candidate of the topn template: ORDER BY price DESC,
// orderkey ASC.
type topRow struct {
	key   int64
	price float64
}

// before reports whether a sorts ahead of b in the topn order.
func (a topRow) before(b topRow) bool {
	if a.price != b.price {
		return a.price > b.price
	}
	return a.key < b.key
}

// topHeap is a bounded heap whose root is the row that sorts last.
type topHeap []topRow

func (h topHeap) Len() int           { return len(h) }
func (h topHeap) Less(i, j int) bool { return h[j].before(h[i]) }
func (h topHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *topHeap) Push(x any)        { *h = append(*h, x.(topRow)) }
func (h *topHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (h *topHeap) offer(r topRow) {
	if h.Len() < topN {
		heap.Push(h, r)
		return
	}
	if r.before((*h)[0]) {
		(*h)[0] = r
		heap.Fix(h, 0)
	}
}

// ordersOracle keeps every generated order, so the trickle workload can
// model its writes on top of the loaded state and the join can look up
// each lineitem's priority. Orders are generated before lineitem.
type ordersOracle struct {
	day      []int16 // indexed by o_orderkey-1
	cents    []int64 // o_totalprice in cents
	priority []uint8 // index into priorities
}

// priorities are datagen's o_orderpriority values, in their generated
// order.
var priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

func priorityIndex(p string) int {
	for i, q := range priorities {
		if q == p {
			return i
		}
	}
	return -1
}

// generate writes the CSV of the tables a workload loads into dir and
// fills the oracle. It is deterministic for a (seed, lineitems) pair;
// datagen sizes orders as lineitems/4+1 from the same scale factor.
func generate(dir string, seed int64, lineitems int, wantLineitem, wantOrders bool) (*dataset, error) {
	ds := &dataset{}
	// The half row keeps int(sf*RowsPerSF) from rounding below lineitems.
	sf := (float64(lineitems) + 0.5) / datagen.RowsPerSF
	if wantOrders {
		ds.ord = &ordersOracle{}
		ds.ordersCSV = filepath.Join(dir, "orders.csv")
		n, size, err := writeCSV(ds.ordersCSV, func(emit func([]types.Value) error) error {
			return datagen.Orders(sf, seed, emit)
		}, func(row []types.Value) error {
			if int(row[0].I64) != len(ds.ord.day)+1 {
				return fmt.Errorf("orders: key %d out of sequence", row[0].I64)
			}
			p := priorityIndex(row[4].Str)
			if p < 0 {
				return fmt.Errorf("orders: unknown priority %q", row[4].Str)
			}
			ds.ord.day = append(ds.ord.day, int16(row[3].I64-int64(epoch1992)))
			ds.ord.cents = append(ds.ord.cents, centsOf(row[2].F64))
			ds.ord.priority = append(ds.ord.priority, uint8(p))
			return nil
		})
		if err != nil {
			return nil, err
		}
		if n != lineitems/4+1 {
			return nil, fmt.Errorf("orders: generated %d rows, want %d", n, lineitems/4+1)
		}
		ds.orders = n
		ds.csvBytes += size
	}
	if wantLineitem {
		li := &lineitemOracle{joinCount: map[string]int64{}}
		ds.li = li
		ds.lineitemCSV = filepath.Join(dir, "lineitem.csv")
		n, size, err := writeCSV(ds.lineitemCSV, func(emit func([]types.Value) error) error {
			return datagen.Lineitems(sf, seed, emit)
		}, func(row []types.Value) error {
			key, qty, price := row[0].I64, row[2].I64, row[3].F64
			day := int(row[8].I64 - int64(epoch1992))
			g := q1Group(row[6].Str, row[7].Str)
			if day < 0 || day >= days || g < 0 || qty < 1 || qty > 50 || key < 1 || key > int64(lineitems/4+1) {
				return fmt.Errorf("lineitem: row outside the generated domain: %v", row)
			}
			li.count++
			li.sumQty += qty
			li.sumPrice += price
			li.dayCount[day]++
			li.dayQty[day] += qty
			li.dayQtyCount[day][qty]++
			acc := &li.q1[g][day]
			acc.count++
			acc.qty += qty
			acc.discPrice += price * (1 - row[4].F64)
			acc.price += price
			if ds.ord != nil {
				li.joinCount[priorities[ds.ord.priority[key-1]]]++
			}
			li.top.offer(topRow{key: key, price: price})
			return nil
		})
		if err != nil {
			return nil, err
		}
		if n != lineitems {
			return nil, fmt.Errorf("lineitem: generated %d rows, want %d", n, lineitems)
		}
		ds.lineitems = n
		ds.csvBytes += size
	}
	return ds, nil
}

// centsOf converts a generated two-decimal price to exact integer cents.
func centsOf(f float64) int64 {
	if f < 0 {
		return int64(f*100 - 0.5)
	}
	return int64(f*100 + 0.5)
}

// writeCSV streams generated rows to path in the format COPY reads (no
// header, empty field = NULL), handing each row to observe as well. It
// returns the row count and the file size.
func writeCSV(path string, gen func(func([]types.Value) error) error, observe func([]types.Value) error) (int, int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	bw := bufio.NewWriterSize(f, 1<<20)
	w := csv.NewWriter(bw)
	var rec []string
	n := 0
	err = gen(func(row []types.Value) error {
		rec = rec[:0]
		for _, v := range row {
			if v.Null {
				rec = append(rec, "")
			} else {
				rec = append(rec, v.String())
			}
		}
		n++
		if err := w.Write(rec); err != nil {
			return err
		}
		return observe(row)
	})
	if err != nil {
		return 0, 0, fmt.Errorf("writing %s: %w", path, err)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return 0, 0, err
	}
	if err := bw.Flush(); err != nil {
		return 0, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	return n, st.Size(), f.Close()
}
