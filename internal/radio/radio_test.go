package radio

import (
	"math"
	"testing"
)

func TestCC2420Levels(t *testing.T) {
	levels := TxPowerLevels()
	if len(levels) == 0 {
		t.Fatal("no TX power levels")
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] <= levels[i-1] {
			t.Fatal("levels must be ascending")
		}
	}
	var prev float64
	for _, dbm := range levels {
		c, err := CC2420(dbm)
		if err != nil {
			t.Fatalf("CC2420(%d): %v", dbm, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("CC2420(%d) invalid: %v", dbm, err)
		}
		if float64(c.TxPower) <= prev {
			t.Errorf("TX power at %d dBm (%v) not increasing", dbm, c.TxPower)
		}
		prev = float64(c.TxPower)
	}
	if _, err := CC2420(7); err == nil {
		t.Error("unsupported level accepted")
	}
}

func TestDefaultCC2420(t *testing.T) {
	c := DefaultCC2420()
	if c.OutputDBm != 0 {
		t.Errorf("default level = %d dBm, want 0", c.OutputDBm)
	}
	// 17.4 mA at 3 V = 52.2 mW.
	if math.Abs(float64(c.TxPower)-52.2e-3) > 1e-9 {
		t.Errorf("TX power = %v, want 52.2mW", c.TxPower)
	}
	// At 0 dBm, RX costs more than TX on this chip.
	if c.RxPower <= c.TxPower {
		t.Error("CC2420 RX should draw more than TX at 0 dBm")
	}
}

func TestPerBitEnergies(t *testing.T) {
	c := DefaultCC2420()
	// 52.2 mW / 250 kbit/s = 208.8 nJ/bit.
	if got := float64(c.EnergyPerBitTx()); math.Abs(got-208.8e-9) > 1e-12 {
		t.Errorf("E_tx = %g, want 208.8nJ", got)
	}
	if got := float64(c.EnergyPerBitRx()); math.Abs(got-56.4e-3/250e3) > 1e-12 {
		t.Errorf("E_rx = %g", got)
	}
}

func TestTxTimeAndEnergy(t *testing.T) {
	c := DefaultCC2420()
	// 125 bytes = 1000 bits at 250 kbit/s = 4 ms.
	if got := float64(c.TxTime(125)); math.Abs(got-4e-3) > 1e-12 {
		t.Errorf("TxTime(125) = %g, want 4ms", got)
	}
}

func TestValidateCatchesBadChips(t *testing.T) {
	good := DefaultCC2420()
	cases := []func(*Chip){
		func(c *Chip) { c.BitRate = 0 },
		func(c *Chip) { c.TxPower = 0 },
		func(c *Chip) { c.RxPower = -1 },
		func(c *Chip) { c.SleepPower = -1 },
		func(c *Chip) { c.RampUpTime = -1 },
		func(c *Chip) { c.SleepPower = c.RxPower * 2 }, // ordering violated
		func(c *Chip) { c.IdlePower = c.RxPower * 2 },
	}
	for i, mutate := range cases {
		c := good
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: mutation accepted", i)
		}
	}
}

func TestPowerOrdering(t *testing.T) {
	c := DefaultCC2420()
	if !(c.SleepPower < c.IdlePower && c.IdlePower < c.RxPower) {
		t.Error("power states must be ordered sleep < idle < rx")
	}
	if c.RampUpTime <= 0 || c.RampUpEnergy <= 0 {
		t.Error("ramp-up costs must be positive for a realistic chip")
	}
}

func TestAT86RF230(t *testing.T) {
	c := DefaultAT86RF230()
	if err := c.Validate(); err != nil {
		t.Fatalf("default AT86RF230 invalid: %v", err)
	}
	if c.OutputDBm != 3 {
		t.Errorf("default output %d dBm, want +3", c.OutputDBm)
	}
	// The RF230's headline trade-off vs the CC2420: cheaper receive bits,
	// near-zero sleep draw, slower wake-up ramp.
	cc := DefaultCC2420()
	if c.EnergyPerBitRx() >= cc.EnergyPerBitRx() {
		t.Errorf("RF230 per-bit RX (%v) should undercut CC2420 (%v)",
			c.EnergyPerBitRx(), cc.EnergyPerBitRx())
	}
	if c.SleepPower >= cc.SleepPower {
		t.Errorf("RF230 sleep (%v) should undercut CC2420 (%v)", c.SleepPower, cc.SleepPower)
	}
	if c.RampUpTime <= cc.RampUpTime {
		t.Errorf("RF230 ramp (%v) should exceed CC2420 (%v)", c.RampUpTime, cc.RampUpTime)
	}
	if _, err := AT86RF230(7); err == nil {
		t.Error("unsupported output level accepted")
	}
}
