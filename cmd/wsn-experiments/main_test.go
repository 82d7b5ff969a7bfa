package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	all := map[string]bool{"fig3": true, "fig4": true, "delay": true, "speed": true, "fig5": true, "ablation": true, "scenarios": true}
	cases := []struct {
		run  string
		want map[string]bool // nil: -run must fail, quoting bad
		bad  string
	}{
		{run: "all", want: all},
		{run: "fig4", want: map[string]bool{"fig4": true}},
		{run: "fig3, fig5,calibrate", want: map[string]bool{"fig3": true, "fig5": true, "calibrate": true}},
		{run: "nope", bad: "nope"},
		{run: "fig4,fgi5", bad: "fgi5"},
		{run: "fig4,", bad: ""},
		{run: "", bad: ""},
	}
	for _, tc := range cases {
		got, err := selectExperiments(tc.run)
		if tc.want != nil {
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("-run %q: got %v, %v; want %v", tc.run, got, err, tc.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("-run %q: selected %v, want an error", tc.run, got)
			continue
		}
		for _, want := range []string{`"` + tc.bad + `"`, "all, fig3, fig4, delay, speed, fig5, ablation, scenarios, calibrate"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("-run %q: error %q does not name %s", tc.run, err, want)
			}
		}
	}
}
