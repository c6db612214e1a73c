package core

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"
)

// table1Golden pins Table 1 as dispatched: one row per AllCellKeys cell,
// in that order, written as "<cell>__expect: <row>". A row is the cell's
// complexity, paper source and method, and whether it is exact, has a
// Prepare capability and an anytime solver.
const table1Golden = "testdata/table1.golden"

// table1Row renders the actual row of one dispatch cell.
func table1Row(key CellKey) string {
	cl := ClassifyCell(key)
	e, ok := LookupSolver(key)
	if !ok {
		return "no solver"
	}
	return fmt.Sprintf("%v | %s | %v | exact=%v | prepare=%v | anytime=%v",
		cl.Complexity, cl.Source, e.Method, e.Exact, e.Prepare != nil, e.Anytime != nil)
}

// TestTable1Golden compares every dispatch cell's actual row with the
// expected row of the golden file, and the cell order with AllCellKeys.
func TestTable1Golden(t *testing.T) {
	f, err := os.Open(table1Golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var cells []string
	expect := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cell, row, ok := strings.Cut(line, "__expect: ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		cells = append(cells, cell)
		expect[cell] = row
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	keys := AllCellKeys()
	if len(keys) != len(cells) {
		t.Fatalf("AllCellKeys: %d cells, golden: %d", len(keys), len(cells))
	}
	for i, key := range keys {
		if cells[i] != key.String() {
			t.Errorf("cell %d: AllCellKeys has %v, golden has %s", i, key, cells[i])
		}
		if actual := table1Row(key); actual != expect[key.String()] {
			t.Errorf("%v__actual: %s\n%v__expect: %s", key, actual, key, expect[key.String()])
		}
	}
}
