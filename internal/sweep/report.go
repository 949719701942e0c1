package sweep

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/exp"
)

// JSON renders the artifact deterministically (indented, trailing newline).
func (a *Artifact) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal artifact: %w", err)
	}
	return append(data, '\n'), nil
}

// cell looks up one cell of the grid (grid order guarantees presence).
func (a *Artifact) cell(scenarioName, variant string) *Cell {
	for i := range a.Cells {
		if a.Cells[i].Scenario == scenarioName && a.Cells[i].Variant == variant {
			return &a.Cells[i]
		}
	}
	return nil
}

// hasAdversary reports whether any cell carries adversary bands; every
// adversary-aware table and CSV column is gated on it so honest sweeps keep
// rendering byte-identical reports.
func (a *Artifact) hasAdversary() bool {
	for i := range a.Cells {
		if a.Cells[i].Eclipse != nil {
			return true
		}
	}
	return false
}

// bandOr reads an optional band, all zero when absent — a mixed grid can
// hold honest and adversary cells side by side.
func bandOr(b *Band) Band {
	if b == nil {
		return Band{}
	}
	return *b
}

// column is one metric of a report, stated once for its CSV and its text
// table: the CSV writes every column under csv, the text table the columns
// that carry a heading, as a percentage when pct. Adversary columns render
// only where the renderer's gate lets adversaries in.
type column[T any] struct {
	csv, text string
	pct, adv  bool
	val       func(T) float64
}

// summaryColumns are the per-cell summary's metrics, in report order.
var summaryColumns = []column[*Cell]{
	{csv: "final_cluster_p10", text: "final%p10", pct: true, val: func(c *Cell) float64 { return c.FinalCluster.P10 }},
	{csv: "final_cluster_p50", text: "final%p50", pct: true, val: func(c *Cell) float64 { return c.FinalCluster.P50 }},
	{csv: "final_cluster_p90", text: "final%p90", pct: true, val: func(c *Cell) float64 { return c.FinalCluster.P90 }},
	{csv: "worst_cluster_p10", val: func(c *Cell) float64 { return c.WorstCluster.P10 }},
	{csv: "worst_cluster_p50", text: "worst%p50", pct: true, val: func(c *Cell) float64 { return c.WorstCluster.P50 }},
	{csv: "worst_cluster_p90", val: func(c *Cell) float64 { return c.WorstCluster.P90 }},
	{csv: "final_stale_p50", text: "stale%p50", pct: true, val: func(c *Cell) float64 { return c.FinalStaleP50 }},
	{csv: "completion_p50", val: func(c *Cell) float64 { return c.CompletionP50 }},
	{csv: "recovered_fraction", text: "recov%", pct: true, val: func(c *Cell) float64 { return c.RecoveredFraction }},
	{csv: "recovery_rounds_p10", val: func(c *Cell) float64 { return c.RecoveryRounds.P10 }},
	{csv: "recovery_rounds_p50", text: "recov-rounds-p50", val: func(c *Cell) float64 { return c.RecoveryRounds.P50 }},
	{csv: "recovery_rounds_p90", val: func(c *Cell) float64 { return c.RecoveryRounds.P90 }},
	{csv: "eclipse_p10", adv: true, val: func(c *Cell) float64 { return bandOr(c.Eclipse).P10 }},
	{csv: "eclipse_p50", text: "eclipse%p50", pct: true, adv: true, val: func(c *Cell) float64 { return bandOr(c.Eclipse).P50 }},
	{csv: "eclipse_p90", adv: true, val: func(c *Cell) float64 { return bandOr(c.Eclipse).P90 }},
	{csv: "colluder_share_p50", text: "colluder%p50", pct: true, adv: true, val: func(c *Cell) float64 { return bandOr(c.ColluderShare).P50 }},
	{csv: "honest_cluster_p10", adv: true, val: func(c *Cell) float64 { return bandOr(c.HonestCluster).P10 }},
	{csv: "honest_cluster_p50", text: "honest%p50", pct: true, adv: true, val: func(c *Cell) float64 { return bandOr(c.HonestCluster).P50 }},
	{csv: "honest_cluster_p90", adv: true, val: func(c *Cell) float64 { return bandOr(c.HonestCluster).P90 }},
}

// bandColumns are the per-round band's metrics, in report order.
var bandColumns = []column[*BandPoint]{
	{csv: "cluster_p10", text: "p10", pct: true, val: func(p *BandPoint) float64 { return p.Cluster.P10 }},
	{csv: "cluster_p50", text: "p50", pct: true, val: func(p *BandPoint) float64 { return p.Cluster.P50 }},
	{csv: "cluster_p90", text: "p90", pct: true, val: func(p *BandPoint) float64 { return p.Cluster.P90 }},
	{csv: "stale_p50", text: "stale%p50", pct: true, val: func(p *BandPoint) float64 { return p.StaleP50 }},
	{csv: "alive_p50", text: "alive-p50", val: func(p *BandPoint) float64 { return p.AliveP50 }},
	{csv: "eclipse_p10", adv: true, val: func(p *BandPoint) float64 { return bandOr(p.Eclipse).P10 }},
	{csv: "eclipse_p50", text: "eclipse%p50", pct: true, adv: true, val: func(p *BandPoint) float64 { return bandOr(p.Eclipse).P50 }},
	{csv: "eclipse_p90", text: "eclipse%p90", pct: true, adv: true, val: func(p *BandPoint) float64 { return bandOr(p.Eclipse).P90 }},
}

// shown picks the columns one rendering writes: adversary columns only when
// adv, and for the text table only the columns with a heading.
func shown[T any](cols []column[T], adv, text bool) []column[T] {
	var out []column[T]
	for _, col := range cols {
		if (adv || !col.adv) && (!text || col.text != "") {
			out = append(out, col)
		}
	}
	return out
}

// textTable starts a text table whose first column heads the row labels.
func textTable[T any](title, label string, cols []column[T]) exp.Table {
	t := exp.Table{Title: title, Columns: []string{label}}
	for _, col := range cols {
		t.Columns = append(t.Columns, col.text)
	}
	return t
}

// textRow renders x as one text row under cols.
func textRow[T any](label string, cols []column[T], x T) exp.Row {
	row := exp.Row{Label: label, Values: make([]float64, len(cols))}
	for i, col := range cols {
		row.Values[i] = col.val(x)
		if col.pct {
			row.Values[i] *= 100
		}
	}
	return row
}

// csvHeader writes the header line: the key columns, then cols.
func csvHeader[T any](b *strings.Builder, keys string, cols []column[T]) {
	b.WriteString(keys)
	for _, col := range cols {
		b.WriteString("," + col.csv)
	}
	b.WriteByte('\n')
}

// csvRow finishes a row whose key columns are written: cols' values of x.
func csvRow[T any](b *strings.Builder, cols []column[T], x T) {
	for _, col := range cols {
		fmt.Fprintf(b, ",%g", col.val(x))
	}
	b.WriteByte('\n')
}

// GridTables renders the cross-variant recovery grid: one table per metric,
// scenarios as rows, variants as columns. Adversary grids additionally get
// the attack metrics — the "how much Byzantine load survives" view.
func (a *Artifact) GridTables() []exp.Table {
	metrics := []struct {
		title string
		value func(*Cell) float64
	}{
		{"sweep — final biggest cluster (%) p50", func(c *Cell) float64 { return c.FinalCluster.P50 * 100 }},
		{"sweep — worst sampled cluster (%) p50", func(c *Cell) float64 { return c.WorstCluster.P50 * 100 }},
		{"sweep — recovered seeds (%)", func(c *Cell) float64 { return c.RecoveredFraction * 100 }},
		{"sweep — recovery rounds (worst→recovered) p50", func(c *Cell) float64 { return c.RecoveryRounds.P50 }},
	}
	if a.hasAdversary() {
		metrics = append(metrics, []struct {
			title string
			value func(*Cell) float64
		}{
			{"sweep — eclipse probability (%) p50", func(c *Cell) float64 { return bandOr(c.Eclipse).P50 * 100 }},
			{"sweep — colluder indegree share (%) p50", func(c *Cell) float64 { return bandOr(c.ColluderShare).P50 * 100 }},
			{"sweep — honest-subgraph cluster (%) p50", func(c *Cell) float64 { return bandOr(c.HonestCluster).P50 * 100 }},
		}...)
	}
	tables := make([]exp.Table, 0, len(metrics))
	for _, m := range metrics {
		t := exp.Table{Title: m.title, Columns: append([]string{"scenario"}, a.Variants...)}
		for _, sc := range a.Scenarios {
			row := exp.Row{Label: sc}
			for _, v := range a.Variants {
				row.Values = append(row.Values, m.value(a.cell(sc, v)))
			}
			t.Rows = append(t.Rows, row)
		}
		tables = append(tables, t)
	}
	return tables
}

// SummaryTables renders one per-scenario table with the quantile bands:
// variants as rows, the cell summary statistics as columns.
func (a *Artifact) SummaryTables() []exp.Table {
	cols := shown(summaryColumns, a.hasAdversary(), true)
	tables := make([]exp.Table, 0, len(a.Scenarios))
	for _, sc := range a.Scenarios {
		t := textTable(fmt.Sprintf("scenario %q — per-variant summary over %d seeds", sc, len(a.Seeds)), "variant", cols)
		for _, v := range a.Variants {
			t.Rows = append(t.Rows, textRow(v, cols, a.cell(sc, v)))
		}
		tables = append(tables, t)
	}
	return tables
}

// BandTables renders each cell's per-round quantile band as a table
// (round, cluster p10/p50/p90, stale p50, alive p50), with the eclipse band
// for a cell that ran adversaries.
func (a *Artifact) BandTables() []exp.Table {
	tables := make([]exp.Table, 0, len(a.Cells))
	for i := range a.Cells {
		c := &a.Cells[i]
		cols := shown(bandColumns, c.Eclipse != nil, true)
		t := textTable(fmt.Sprintf("band (%s, %s) — biggest cluster (%%) per round", c.Scenario, c.Variant), "round", cols)
		for j := range c.Series {
			pt := &c.Series[j]
			t.Rows = append(t.Rows, textRow(fmt.Sprintf("%d", pt.Round), cols, pt))
		}
		tables = append(tables, t)
	}
	return tables
}

// Text renders the full aligned-text report: the cross-variant grids, the
// per-scenario summaries, then the per-cell bands.
func (a *Artifact) Text() string {
	var b strings.Builder
	for _, t := range a.GridTables() {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, t := range a.SummaryTables() {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	for _, t := range a.BandTables() {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// SummaryCSV renders one row per cell with the summary statistics. Adversary
// columns appear only when the sweep ran with adversaries, so honest sweeps
// keep producing byte-identical CSVs.
func (a *Artifact) SummaryCSV() string {
	cols := shown(summaryColumns, a.hasAdversary(), false)
	var b strings.Builder
	csvHeader(&b, "scenario,variant,seeds", cols)
	for i := range a.Cells {
		c := &a.Cells[i]
		fmt.Fprintf(&b, "%s,%s,%d", c.Scenario, c.Variant, len(c.Seeds))
		csvRow(&b, cols, c)
	}
	return b.String()
}

// BandsCSV renders one row per (cell, round) with the per-round band,
// gaining eclipse columns only for adversary sweeps.
func (a *Artifact) BandsCSV() string {
	cols := shown(bandColumns, a.hasAdversary(), false)
	var b strings.Builder
	csvHeader(&b, "scenario,variant,round", cols)
	for i := range a.Cells {
		c := &a.Cells[i]
		for j := range c.Series {
			fmt.Fprintf(&b, "%s,%s,%d", c.Scenario, c.Variant, c.Series[j].Round)
			csvRow(&b, cols, &c.Series[j])
		}
	}
	return b.String()
}
