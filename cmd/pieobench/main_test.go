package main

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"pieo/internal/experiments"
)

// Smoke: the command runs one paper figure end to end and prints its
// table as CSV — header plus one row per scheduler size, with PIEO's
// logic cost below PIFO's at 1K (the Fig 8 claim).
func TestRunFig8Smoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "fig8", "-format", "csv"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if lines[0] != "size,PIEO ALMs,PIFO ALMs,PIEO comparators,PIFO comparators" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != 1+7 {
		t.Fatalf("got %d rows, want one per size 1K…32K:\n%s", len(lines)-1, out.String())
	}
	f := strings.Split(lines[1], ",")
	pieo, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
	pifo, err2 := strconv.ParseFloat(strings.TrimSuffix(f[2], "%"), 64)
	if f[0] != "1K" || err1 != nil || err2 != nil || pieo >= pifo {
		t.Fatalf("row %q: want PIEO ALM %% below PIFO's at 1K", lines[1])
	}
}

// paperExperiments is the registry: the 20 reproduction and behaviour
// experiments, sorted as -list prints them.
const paperExperiments = "ablation approx deviation devices fig10 fig11 fig12 fig2 fig8 fig9 " +
	"hier3 hierscale overload pacing-precision pipeline qdev rate scale trigger wfi"

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(strings.Fields(out.String()), " "); got != paperExperiments {
		t.Fatalf("-list = %s\nwant    %s", got, paperExperiments)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"fig8"},
		{"-experiment", "nope"},
		{"-experiment", "fig8", "-format", "nope"},
		{"-experiment", "fig8", "-json"},
		{"-experiment", "fig8", "-procs", "2"},
		{"-experiment", "fig8", "-backend", "core"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}

// TestDocsNameRegisteredExperiments pins the two experiment indexes to
// the registry: every registered id appears as `-experiment <id>` in
// DESIGN.md §4 and in README's id list, and neither file tells a reader
// to run an experiment that does not exist.
func TestDocsNameRegisteredExperiments(t *testing.T) {
	read := func(name string) string {
		b, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	between := func(s, from, to string) string {
		i := strings.Index(s, from)
		if i < 0 {
			t.Fatalf("no %q in the docs", from)
		}
		s = s[i:]
		if j := strings.Index(s, to); j >= 0 {
			s = s[:j]
		}
		return s
	}
	design, readme := read("DESIGN.md"), read("README.md")
	registered := map[string]bool{"all": true}
	for _, id := range experiments.IDs() {
		registered[id] = true
	}
	flagUse := regexp.MustCompile("[ `]-experiment ([a-z0-9-]+)")
	for name, text := range map[string]string{"DESIGN.md": design, "README.md": readme} {
		for _, m := range flagUse.FindAllStringSubmatch(text, -1) {
			if !registered[m[1]] {
				t.Errorf("%s: `-experiment %s` names an unregistered experiment", name, m[1])
			}
		}
	}
	index := between(design, "## 4. Per-experiment index", "\n## 5.")
	list := between(readme, "Experiment ids:", "\n\n")
	for _, id := range experiments.IDs() {
		if !strings.Contains(index, "`pieobench -experiment "+id+"`") {
			t.Errorf("DESIGN.md §4 has no row regenerated with `pieobench -experiment %s`", id)
		}
		if !strings.Contains(list, "`"+id+"`") {
			t.Errorf("README.md's experiment-id list omits `%s`", id)
		}
	}
	for _, m := range regexp.MustCompile("`([a-z0-9-]+)`").FindAllStringSubmatch(list, -1) {
		if !registered[m[1]] {
			t.Errorf("README.md's experiment-id list names unregistered `%s`", m[1])
		}
	}
}
