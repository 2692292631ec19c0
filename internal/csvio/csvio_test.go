package csvio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/freqstats"
)

func TestReadObservationsBasic(t *testing.T) {
	in := "entity,value,source\nacme,100,w1\nacme,100,w2\nglobex,2000,w1\n"
	obs, err := ReadObservations(strings.NewReader(in), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 3 {
		t.Fatalf("len = %d", len(obs))
	}
	if obs[0] != (freqstats.Observation{EntityID: "acme", Value: 100, Source: "w1"}) {
		t.Errorf("obs[0] = %+v", obs[0])
	}
	if obs[2].Value != 2000 {
		t.Errorf("obs[2] = %+v", obs[2])
	}
}

func TestReadObservationsCustomColumnsAndExtras(t *testing.T) {
	in := "id,notes,employees,worker\nacme,big,100,w1\nglobex,evil,2000,w2\n"
	obs, err := ReadObservations(strings.NewReader(in), Options{
		EntityColumn: "id", ValueColumn: "employees", SourceColumn: "worker",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(obs) != 2 || obs[1].EntityID != "globex" || obs[1].Source != "w2" {
		t.Errorf("obs = %+v", obs)
	}
}

func TestReadObservationsErrors(t *testing.T) {
	tests := []struct {
		name, in string
		opts     Options
		errSub   string
	}{
		{"empty", "", Options{}, "empty input"},
		{"missing entity col", "a,value,source\nx,1,s\n", Options{}, "missing entity column"},
		{"missing value col", "entity,v,source\nx,1,s\n", Options{}, "missing value column"},
		{"missing source col", "entity,value,s\nx,1,s\n", Options{}, "missing source column"},
		{"bad number", "entity,value,source\nx,lots,s\n", Options{}, "not numeric"},
		{"empty entity", "entity,value,source\n,1,s\n", Options{}, "empty entity"},
		{"empty source", "entity,value,source\nx,1,\n", Options{}, "empty source"},
		{"ragged row", "entity,value,source\nx,1\n", Options{}, "line 2"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadObservations(strings.NewReader(tt.in), tt.opts)
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tt.errSub) {
				t.Errorf("error %q does not mention %q", err, tt.errSub)
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	obs := []freqstats.Observation{
		{EntityID: "a", Value: 1.5, Source: "s1"},
		{EntityID: "b, with comma", Value: -2e6, Source: "s2"},
		{EntityID: `c "quoted"`, Value: 0.001, Source: "s1"},
	}
	var buf bytes.Buffer
	if err := WriteObservations(&buf, obs, Options{}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadObservations(&buf, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(obs) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range obs {
		if got[i] != obs[i] {
			t.Errorf("row %d: %+v != %+v", i, got[i], obs[i])
		}
	}
}
