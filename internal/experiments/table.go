// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.3 Fig 2, §6.1 Fig 8–9, §6.2 Fig 10 and the headline
// numbers, §6.3 Fig 11–12), plus the O(N) PIFO-deviation claim, the
// design ablations and the behaviour studies (overload,
// hierscale) indexed in DESIGN.md §4. Each experiment returns a Table
// whose rows are the series the paper plots; cmd/pieobench prints them
// and bench_test.go reports their headline values as benchmark metrics.
// Software throughput is not measured here — that is bench/.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is one reproduced figure or table.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Columns)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintln(w)
}

// FprintCSV renders the table as RFC-4180-style CSV (header row first),
// for piping into plotting tools.
func (t *Table) FprintCSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				fmt.Fprint(w, ",")
			}
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			fmt.Fprint(w, cell)
		}
		fmt.Fprintln(w)
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

// Runner produces a Table.
type Runner func() *Table

// registry maps experiment ids to their runners.
var registry = map[string]Runner{
	"fig2":             Fig2,
	"fig8":             Fig8,
	"fig9":             Fig9,
	"fig10":            Fig10,
	"rate":             SchedulingRate,
	"scale":            Scalability,
	"fig11":            Fig11,
	"fig12":            Fig12,
	"deviation":        Deviation,
	"ablation":         Ablation,
	"pipeline":         Pipeline,
	"trigger":          TriggerModels,
	"devices":          Devices,
	"approx":           Approx,
	"pacing-precision": PacingPrecision,
	"wfi":              WFI,
	"hier3":            Hier3,
	"hierscale":        HierScale,
	"overload":         Overload,
	"qdev":             QuantDeviation,
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes the experiment with the given id.
func Run(id string) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r(), nil
}
