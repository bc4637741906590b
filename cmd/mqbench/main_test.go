package main

import (
	"strings"
	"testing"

	"mqsched/internal/experiment"
)

func TestSelectExperiments(t *testing.T) {
	all, timeline, err := selectExperiments("all")
	if err != nil || timeline {
		t.Fatalf("all: timeline %v, %v", timeline, err)
	}
	if len(all) != len(experiment.Specs) {
		t.Errorf("all selects %d of %d specs, want every table", len(all), len(experiment.Specs))
	}
	for _, s := range experiment.Specs {
		got, timeline, err := selectExperiments(s.ID)
		if err != nil || timeline || len(got) != 1 || got[0].ID != s.ID {
			t.Errorf("selectExperiments(%q) = %v, %v, %v", s.ID, got, timeline, err)
		}
	}
	if got, timeline, err := selectExperiments("timeline"); err != nil || !timeline || len(got) != 0 {
		t.Errorf("selectExperiments(timeline) = %v, %v, %v", got, timeline, err)
	}
	// The error names every id, the ones the old hand-kept list forgot included.
	_, _, err = selectExperiments("fig9")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, id := range append(experimentIDs(), "all") {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not list %q", err, id)
		}
	}
}
