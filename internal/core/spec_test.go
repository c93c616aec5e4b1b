package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"sage/internal/cloud"
	"sage/internal/workload"
)

func validSpec() JobSpec {
	return JobSpec{
		Sources: []SourceSpec{{Site: cloud.NorthEU, Rate: workload.ConstantRate(10)}},
		Sink:    cloud.NorthUS,
		Window:  30 * time.Second,
	}
}

func TestSpecErrorPerField(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*JobSpec)
		field  string
	}{
		{"no-sources", func(j *JobSpec) { j.Sources = nil }, "Sources"},
		{"zero-window", func(j *JobSpec) { j.Window = 0 }, "Window"},
		{"negative-window", func(j *JobSpec) { j.Window = -time.Second }, "Window"},
		{"no-sink", func(j *JobSpec) { j.Sink = "" }, "Sink"},
		{"nil-rate", func(j *JobSpec) { j.Sources[0].Rate = nil }, "Sources[0].Rate"},
		{"nil-rate-second", func(j *JobSpec) {
			j.Sources = append(j.Sources, SourceSpec{Site: cloud.WestEU})
		}, "Sources[1].Rate"},
		{"budget-and-deadline", func(j *JobSpec) {
			j.BudgetPerWindow = 1
			j.DeadlinePerWindow = time.Second
		}, "BudgetPerWindow"},
		{"unknown-sink", func(j *JobSpec) { j.Sink = "atlantis" }, "Sink"},
		{"unknown-source-site", func(j *JobSpec) { j.Sources[0].Site = "MARS" }, "Sources[0].Site"},
		{"unknown-source-site-second", func(j *JobSpec) {
			j.Sources = append(j.Sources, SourceSpec{Site: "MARS", Rate: workload.ConstantRate(1)})
		}, "Sources[1].Site"},
	}
	e := quietEngine(1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			job := validSpec()
			tc.mutate(&job)
			err := e.ValidateSpec(job)
			if err == nil {
				t.Fatal("invalid spec accepted")
			}
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("error %v (%T) is not a *SpecError", err, err)
			}
			if se.Field != tc.field {
				t.Fatalf("Field = %q, want %q", se.Field, tc.field)
			}
			if se.Reason == "" {
				t.Fatal("empty Reason")
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("Error() %q does not name the field", err.Error())
			}
		})
	}
}

func TestSpecValidAppliesDefaults(t *testing.T) {
	job := validSpec()
	job.withDefaults()
	if job.Sources[0].EventBytes != DefaultEventBytes {
		t.Fatalf("defaults not applied: %+v", job)
	}
	if job.Lanes != 2 {
		t.Fatalf("lane defaults not applied: %+v", job)
	}
}

func TestStartUnknownSinkIsSpecError(t *testing.T) {
	e := quietEngine(1)
	job := validSpec()
	job.Sink = "atlantis"
	_, err := e.Start(job, time.Minute)
	var se *SpecError
	if !errors.As(err, &se) || se.Field != "Sink" {
		t.Fatalf("err = %v, want *SpecError on Sink", err)
	}
}
