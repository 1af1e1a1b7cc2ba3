package main

import (
	"strings"
	"testing"

	"ebslab/internal/core"
)

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
