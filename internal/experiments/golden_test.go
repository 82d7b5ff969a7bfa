package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestPaperHarnessGolden pins the rendered output of the paper harnesses
// byte for byte, at the configurations wsn-experiments runs and at reduced
// fig5 and delay budgets: any drift in the design space's gene order,
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
		{"fig4", func() (Report, error) { return Fig4(Fig4Config{}) },
			"8cd544d41fab40bfb88690cdd01142972b743071c05a48390c212f204ce44288"},
		{"fig5", func() (Report, error) {
			return Fig5(Fig5Config{PopulationSize: 24, Generations: 8, RunMOSA: true})
		}, "403a5eb67c07be811a16004cd8f16beb938f36a47b04db28f1810e5acbf00764"},
		{"fig5-shipped", func() (Report, error) { return Fig5(Fig5Config{RunMOSA: true}) },
			"5fab5071271cb2db877be61b4a702ea1acbf176dd5c3c39f32b0999f71ebb140"},
		{"theta", func() (Report, error) { return ThetaAblation(ThetaAblationConfig{}) },
			"025e53f095ccf112a8af76906a827707bb836fcd857856df6bd91b77f341c513"},
		{"arrival", func() (Report, error) { return ArrivalAblation(ArrivalAblationConfig{}) },
			"2cf07b94e612476023cb3c5ea493d70bc239f7dba21b9b452840097f96fb65aa"},
		{"delay", func() (Report, error) { return DelayVal(DelayValConfig{Runs: 10, SimDuration: 10}) },
			"47b31e82d310016a48505b4432fab8d40a5fac4f8ba76267fa622f12ba4e2de9"},
		{"delay-shipped", func() (Report, error) { return DelayVal(DelayValConfig{}) },
			"12bf78f778d83bf565ed89558725e5cfd56e117b6511cf05e038879edfc216ed"},
		{"scenarios", func() (Report, error) {
			return ScenarioSweepContext(context.Background(), ScenarioSweepConfig{})
		}, "5a6c31bc6663c978dbadbe6db603e9d93d7b70077dd385948b599670e101a9f8"},
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
