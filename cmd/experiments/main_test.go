package main

import (
	"flag"
	"os"
	"strings"
	"testing"
	"time"

	"blueq/internal/scenario"
)

// The section table is the command's whole interface: keys must be
// unique, -only must resolve a comma list in the order given and reject a
// key it does not know by listing the ones it does, and EXPERIMENTS.md's
// section table must name every key.
func TestSectionTable(t *testing.T) {
	secs := sections(&options{})
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sec := range secs {
		if seen[sec.key] {
			t.Errorf("section key %q appears twice", sec.key)
		}
		seen[sec.key] = true
		if !strings.Contains(string(doc), "| `"+sec.key+"` |") {
			t.Errorf("section %q has no row in EXPERIMENTS.md's section table", sec.key)
		}
	}

	if all, err := pick(secs, ""); err != nil || len(all) != len(secs) {
		t.Errorf("pick with no -only = %d sections, %v; want the whole suite", len(all), err)
	}
	got, err := pick(secs, "lb,fig4,serial")
	if err != nil || strings.Join(keys(got), ",") != "lb,fig4,serial" {
		t.Errorf("pick(lb,fig4,serial) = %v, %v; want those three in that order", keys(got), err)
	}
	_, err = pick(secs, "fig4,bogus")
	if err == nil {
		t.Fatal("pick accepted an unknown key")
	}
	for _, key := range append(keys(secs), `"bogus"`) {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("error for an unknown key does not mention %s: %v", key, err)
		}
	}
}

// The pingpong section's verdict: anything but rounds+1 executions fails
// it, in either direction.
func TestExactlyOnceVerdict(t *testing.T) {
	const rounds = 300
	for executed, ok := range map[int64]bool{rounds: false, rounds + 1: true, rounds + 2: false} {
		err := exactlyOnce(scenario.PingPongResult{Executed: executed}, rounds)
		if (err == nil) != ok {
			t.Errorf("exactlyOnce(executed %d of %d rounds) = %v, want ok=%v", executed, rounds, err, ok)
		}
	}
}

// The runtime flags keep main's defaults, apply a non-zero seed to the
// transport spec, and arm aggregation from any of its three flags.
func TestFlags(t *testing.T) {
	f := runtimeFlags{Transport: "inproc", Seed: 1, FCWindow: 16}
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if f.Transport != "inproc" || f.Seed != 1 || f.FCWindow != 16 || f.Aggregation() != nil {
		t.Fatalf("defaults not kept: %+v", f)
	}
	if err := fs.Parse([]string{"-transport=faulty:seed=3,drop=0.1", "-seed=7", "-agg-delay=1ms"}); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Spec(), "faulty:seed=7,drop=0.1"; got != want {
		t.Errorf("Spec() = %q, want %q", got, want)
	}
	if agc := f.Aggregation(); agc == nil || agc.MaxDelay != time.Millisecond {
		t.Errorf("Aggregation() = %+v, want armed with a 1 ms flush delay", agc)
	}
	f.Seed = 0
	if got, want := f.Spec(), "faulty:seed=3,drop=0.1"; got != want {
		t.Errorf("Spec() with no seed = %q, want the spec untouched (%q)", got, want)
	}
}
