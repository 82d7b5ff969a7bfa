package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestPaperHarnessGolden pins the rendered output of reduced paper
// harness runs byte for byte: any drift in the design space's gene order,
// the evaluators, the baseline comparator or the simulator wiring shows up
// as a changed digest. A deliberate behaviour change must update the
// digests in the same commit and say why.
func TestPaperHarnessGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs searches and simulations")
	}
	cases := []struct {
		name string
		run  func() (Report, error)
		want string
	}{
		{"fig3", func() (Report, error) { return Fig3(Fig3Config{}) },
			"d4da1c5a3093a0aca32994303ccad6d30a6932d547b9875f66f2e698e7078eb3"},
		{"fig5", func() (Report, error) {
			return Fig5(Fig5Config{PopulationSize: 24, Generations: 8, RunMOSA: true})
		}, "403a5eb67c07be811a16004cd8f16beb938f36a47b04db28f1810e5acbf00764"},
		{"theta", func() (Report, error) {
			return ThetaAblation(ThetaAblationConfig{PopulationSize: 16, Generations: 6})
		}, "a4848f052f374830db18caae59d874a15f51fd897631b736716de30e95cd033f"},
		{"arrival", func() (Report, error) { return ArrivalAblation(ArrivalAblationConfig{Runs: 4}) },
			"ca07c3bb7ad79a4ce4717919d5aada97f7fc29335710c920591fdeb9be6ea97c"},
		{"delay", func() (Report, error) { return DelayVal(DelayValConfig{Runs: 10, SimDuration: 10}) },
			"47b31e82d310016a48505b4432fab8d40a5fac4f8ba76267fa622f12ba4e2de9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			res.Render(&buf)
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("render digest %s, want %s; output:\n%s", got, tc.want, buf.String())
			}
		})
	}
}
