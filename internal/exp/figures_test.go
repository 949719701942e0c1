package exp

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// tinyParams keeps figure generation fast enough for the unit test suite
// while still running every code path.
var tinyParams = Params{
	N:         120,
	Rounds:    45,
	Seeds:     []int64{1},
	NATPcts:   []int{40, 80},
	ViewSizes: []int{8},
}

// TestEveryFigureGenerates runs all fourteen figures through one runner call
// and checks each figure's tables for shape; then plans and runs each figure
// alone, which must fill the same tables as sharing its points did.
func TestEveryFigureGenerates(t *testing.T) {
	together := make(map[string][]Table)
	err := RunFigures(Figures, tinyParams, func(f Figure, tables []Table) {
		together[f.ID] = tables
		t.Run("fig"+f.ID, func(t *testing.T) {
			if len(tables) == 0 {
				t.Fatal("no tables produced")
			}
			for _, tb := range tables {
				if tb.Title == "" || len(tb.Columns) < 2 {
					t.Errorf("malformed table %+v", tb)
				}
				if len(tb.Rows) == 0 {
					t.Error("table has no rows")
				}
				for _, r := range tb.Rows {
					if len(r.Values) != len(tb.Columns)-1 {
						t.Errorf("row %q has %d values for %d columns", r.Label, len(r.Values), len(tb.Columns))
					}
				}
				// Both renderings must mention every column.
				text, csv := tb.String(), tb.CSV()
				for _, c := range tb.Columns {
					if !strings.Contains(text, c) || !strings.Contains(csv, c) {
						t.Errorf("column %q missing from output", c)
					}
				}
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(together) != len(Figures) {
		t.Fatalf("%d figures emitted for %d table entries (duplicate ID?)", len(together), len(Figures))
	}
	for _, f := range Figures {
		err := RunFigures([]Figure{f}, tinyParams, func(_ Figure, alone []Table) {
			if !reflect.DeepEqual(alone, together[f.ID]) {
				t.Errorf("figure %s alone:\n%+v\namong all fourteen:\n%+v", f.ID, alone, together[f.ID])
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanCounts pins how much the figures overlap at the default scale:
// planned one at a time they need 289 points (what fourteen separate
// generators ran), planned together 189. The counts depend on nothing but
// the table and Config.Defaults.
func TestPlanCounts(t *testing.T) {
	p := Params{}.defaults()
	alone := make(map[string]int)
	sum := 0
	for _, f := range Figures {
		alone[f.ID] = len(newPlan([]Figure{f}, p).points)
		sum += alone[f.ID]
	}
	if sum != 289 || alone["4"] != 22 {
		t.Errorf("figures planned alone need %d points (-fig 4: %d), want 289 (22): %v", sum, alone["4"], alone)
	}
	all := newPlan(Figures, p)
	if len(all.points) != 189 {
		t.Errorf("all figures plan %d points, want 189", len(all.points))
	}
	values := 0
	for _, tables := range all.tables {
		for _, tp := range tables {
			for _, row := range tp.cells {
				values += len(row)
			}
		}
	}
	if values != 438 {
		t.Errorf("all figures plan %d table values, want 438", values)
	}
}

// TestDesignIndexesEveryFigure keeps DESIGN.md §3 — the one place a figure is
// described outside the table — from drifting: every ID has its row, every
// figure has at least one claims row, and the figure's DESIGN row names each
// claims row that reads it.
func TestDesignIndexesEveryFigure(t *testing.T) {
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Figures {
		row := fmt.Sprintf("| %s | %s | `BenchmarkFigures/%s` |", f.ID, f.Title, f.ID)
		_, line, found := strings.Cut(string(design), row)
		if !found {
			t.Errorf("DESIGN.md §3 has no row starting %q", row)
		}
		line, _, _ = strings.Cut(line, "\n")
		named := 0
		for _, c := range claims {
			if c.cell.fig != f.ID {
				continue
			}
			named++
			if !strings.Contains(line, "`"+c.name+"`") {
				t.Errorf("DESIGN.md §3's row for figure %s does not name claim %s", f.ID, c.name)
			}
		}
		if named == 0 {
			t.Errorf("figure %s has no row in the claims registry", f.ID)
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.defaults()
	if p.N == 0 || p.Rounds == 0 || len(p.Seeds) == 0 || len(p.NATPcts) == 0 || len(p.ViewSizes) == 0 {
		t.Errorf("defaults incomplete: %+v", p)
	}
	// Explicit values survive.
	p = Params{N: 42}.defaults()
	if p.N != 42 {
		t.Error("explicit N overwritten")
	}
}
