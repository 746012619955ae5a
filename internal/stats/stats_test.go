package stats

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("Table I", "nodes", "p2p", "m2m")
	tab.AddRow(64, 3030.0, 1826.0)
	tab.AddRow(1024, 1560.0, 583.0)
	out := tab.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "3030") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3030:   "3030",
		1.6667: "1.67",
		0.0042: "0.0042",
		683:    "683",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(3030, 1826) != "1.66x" {
		t.Fatalf("Ratio = %s", Ratio(3030, 1826))
	}
	if Ratio(1, 0) != "inf" {
		t.Fatal("division by zero not handled")
	}
}
