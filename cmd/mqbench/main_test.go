package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	all, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all {
		if s.run == nil {
			t.Errorf("all includes %q, which renders no table", s.id)
		}
	}
	if len(all) != len(specs)-1 {
		t.Errorf("all selects %d of %d specs, want every table", len(all), len(specs))
	}
	for _, s := range specs {
		got, err := selectExperiments(s.id)
		if err != nil || len(got) != 1 || got[0].id != s.id {
			t.Errorf("selectExperiments(%q) = %v, %v", s.id, got, err)
		}
	}
	// The error names every id, the ones the old hand-kept list forgot included.
	_, err = selectExperiments("fig9")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, id := range append(specIDs(), "all") {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %q", err, id)
		}
	}
}
