package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ebslab/internal/core"
	"ebslab/internal/workload"
)

// TestReportIsCatalogMarkdown pins what analyze prints: the header, then for
// each selected experiment in catalog order a "## Title" heading and its
// Render output in a fenced block, and nothing else — timings go to the
// other writer, so two runs over the same fleet print identical bytes.
func TestReportIsCatalogMarkdown(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 5
	cfg.DCs = 1
	cfg.NodesPerDC = 24
	cfg.BSPerDC = 8
	cfg.BSPerCluster = 4
	cfg.Users = 24
	cfg.DurationSec = 60
	newStudy := func() *core.Study {
		s, err := core.NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	selected, err := selectExperiments(core.Catalog(), "f5,t2")
	if err != nil {
		t.Fatal(err)
	}

	ref := newStudy()
	want := fmt.Sprintf("# Reproduction report (seed 5, 1 DCs, %d VMs, 60s window)\n\n", len(ref.Fleet.Topology.VMs))
	for _, id := range []string{"t2", "f5"} {
		for _, e := range selected {
			if e.ID == id {
				want += "## " + e.Title + "\n\n```\n" + e.Render(ref) + "```\n\n"
			}
		}
	}

	var outs [2]string
	for i := range outs {
		var out, timing bytes.Buffer
		if err := writeReport(&out, &timing, newStudy(), selected); err != nil {
			t.Fatal(err)
		}
		outs[i] = out.String()
		if got := timing.String(); !strings.HasPrefix(got, "[t2 in ") || !strings.Contains(got, "\n[f5 in ") {
			t.Errorf("timing writer got %q, want one [id in d] line per experiment in catalog order", got)
		}
	}
	if outs[0] != want {
		t.Errorf("report:\n%s\nwant:\n%s", outs[0], want)
	}
	if outs[1] != outs[0] {
		t.Error("two runs over the same fleet printed different reports")
	}
}

// TestSelectExperiments pins -run resolution: ids select in catalog order
// whatever order they were named in, "all" selects everything, and an id the
// catalog does not hold is rejected by name instead of running nothing.
func TestSelectExperiments(t *testing.T) {
	catalog := core.Catalog()
	all := idList(catalog)
	cases := []struct {
		run     string
		want    string   // selected ids, comma-joined
		wantErr []string // substrings of the error
	}{
		{run: "all", want: all},
		{run: "t2", want: "t2"},
		{run: "f2,t2", want: "t2,f2"},
		{run: " T3 , ab ", want: "t3,ab"},
		{run: "t2,all", want: all},
		{run: "f9", wantErr: []string{`"f9"`, all}},
		{run: "t2,fg2", wantErr: []string{`"fg2"`, all}},
		{run: "t2,fg2,zz", wantErr: []string{`"fg2", "zz"`}},
		{run: "", wantErr: []string{`""`}},
		{run: "t2,", wantErr: []string{`""`}},
	}
	for _, c := range cases {
		got, err := selectExperiments(catalog, c.run)
		if len(c.wantErr) > 0 {
			if err == nil {
				t.Errorf("-run %q selected %s, want an error", c.run, idList(got))
				continue
			}
			for _, sub := range c.wantErr {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("-run %q: error %q does not name %s", c.run, err, sub)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("-run %q: %v", c.run, err)
			continue
		}
		if ids := idList(got); ids != c.want {
			t.Errorf("-run %q selected %s, want %s", c.run, ids, c.want)
		}
	}
}

// TestSmokes holds the command lines analyze must refuse to exit 2, naming
// the cause on stderr and printing nothing, before any fleet is generated
// (the whole catalog at -scale small is make analyze-smoke, too slow here).
func TestSmokes(t *testing.T) {
	for _, row := range []struct{ name, args, stderr string }{
		{"reject-unknown-experiment", "-scale small -run t2,fg2", `-run names unknown experiment(s) "fg2"`},
		{"reject-unknown-scale", "-scale huge -run t2", `unknown scale "huge"`},
	} {
		t.Run(row.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(row.args), &stdout, &stderr); code != 2 {
				t.Fatalf("analyze %s: exit %d, want 2; stderr:\n%s", row.args, code, stderr.String())
			}
			if stdout.Len() > 0 || !strings.Contains(stderr.String(), row.stderr) {
				t.Fatalf("rejected with stdout %q and stderr %q, want no stdout and a stderr naming %q", stdout.String(), stderr.String(), row.stderr)
			}
		})
	}
}
