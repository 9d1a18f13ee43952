package experiments

import (
	"strings"
	"testing"
)

// smallScale keeps experiment smoke tests fast.
const smallScale = 0.08

func TestRegistryComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Registry {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %q", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil {
			t.Fatalf("experiment %q has no Run", e.ID)
		}
	}
	// Every chapter 3-7 table and figure the paper reports must be present.
	for _, want := range []string{
		"table3.2", "table3.3", "table3.4", "table3.5", "table3.6", "table3.7",
		"fig3.4", "fig3.8",
		"table4.3", "table4.4", "fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6",
		"table4.5", "table4.6", "table4.7", "table4.8",
		"table5.1", "fig5.2", "table5.2", "table5.3",
		"table6.1", "fig6.4", "table6.2",
		"fig7.1", "table7.1", "table7.2",
	} {
		if !ids[want] {
			t.Fatalf("missing experiment %q", want)
		}
	}
}

func TestFindExperiment(t *testing.T) {
	if Find("table3.2") == nil {
		t.Fatal("Find failed")
	}
	if Find("nope") != nil {
		t.Fatal("Find should return nil for unknown ids")
	}
}

// runAndCheck executes one experiment at smoke scale and sanity-checks the
// table shape.
func runAndCheck(t *testing.T, id string) *Table {
	t.Helper()
	e := Find(id)
	if e == nil {
		t.Fatalf("experiment %q not found", id)
	}
	tab := e.Run(smallScale)
	if tab.ID != id {
		t.Fatalf("table id %q != %q", tab.ID, id)
	}
	if len(tab.Rows) == 0 {
		t.Fatalf("%s produced no rows", id)
	}
	s := tab.String()
	if !strings.Contains(s, id) {
		t.Fatalf("%s render missing id", id)
	}
	return tab
}

func TestTable34Smoke(t *testing.T) { runAndCheck(t, "table3.4") }
func TestFig38Smoke(t *testing.T)   { runAndCheck(t, "fig3.8") }
func TestTable43Smoke(t *testing.T) { runAndCheck(t, "table4.3") }
func TestFig46Smoke(t *testing.T)   { runAndCheck(t, "fig4.6") }
func TestTable46Smoke(t *testing.T) { runAndCheck(t, "table4.6") }
func TestTable51Smoke(t *testing.T) { runAndCheck(t, "table5.1") }
func TestTable53Smoke(t *testing.T) { runAndCheck(t, "table5.3") }
func TestTable61Smoke(t *testing.T) { runAndCheck(t, "table6.1") }
func TestFig64Smoke(t *testing.T)   { runAndCheck(t, "fig6.4") }
func TestTable62Smoke(t *testing.T) { runAndCheck(t, "table6.2") }
func TestTable71Smoke(t *testing.T) { runAndCheck(t, "table7.1") }

func TestTable32Shape(t *testing.T) {
	tab := runAndCheck(t, "table3.2")
	// 2 section rows + 5 methods x 2 datasets.
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tab.Rows))
	}
	if tab.Header[len(tab.Header)-1] != "overall" {
		t.Fatalf("last header = %q", tab.Header[len(tab.Header)-1])
	}
}

func TestFig42Shape(t *testing.T) {
	tab := runAndCheck(t, "fig4.2")
	if len(tab.Rows) != 6 {
		t.Fatalf("methods = %d, want 6", len(tab.Rows))
	}
}
