// Package platform characterizes the node hardware of the case study: a
// Shimmer-class wearable built around an MSP430-class microcontroller, a
// 10 kB RAM, an ECG analog front end with a 12-bit ADC, and a CC2420-class
// 802.15.4 radio (§4.3, [24]).
//
// Each component model matches one equation of the paper's node model
// (§3.3): SensorModel is Eq. 3, MicroModel is Eq. 4, MemoryModel is Eq. 5.
// All powers are per-second energies (watts); coefficients are the kind a
// designer obtains by calibrating against bench measurements, and the
// shipped defaults are one such calibration.
package platform

import (
	"fmt"

	"wsndse/internal/radio"
	"wsndse/internal/units"
)

// SensorModel is the sensing-chain energy model of Eq. 3:
//
//	E_sensor = E_transducer + [α_s1·f_s + α_s0]
//
// TransducerPower is the analog front end's constant draw; Alpha1 (joules
// per sample) and Alpha0 (watts) capture the A/D converter's linear
// dependence on the sampling frequency.
type SensorModel struct {
	TransducerPower units.Watts
	Alpha1          units.Joules // per sample
	Alpha0          units.Watts
}

// Power evaluates Eq. 3 at sampling frequency fs.
func (s SensorModel) Power(fs units.Hertz) units.Watts {
	return s.TransducerPower + units.Watts(float64(s.Alpha1)*float64(fs)) + s.Alpha0
}

// MicroModel is the microcontroller energy model of Eq. 4:
//
//	E_µC = Duty_app · [α_µC1·f_µC + α_µC0]
//
// Alpha1 is the switching energy per cycle (joules/cycle ≡ W/Hz) and
// Alpha0 the frequency-independent active overhead.
type MicroModel struct {
	Alpha1 units.Joules // per cycle
	Alpha0 units.Watts
}

// ActivePower is the draw while executing at frequency f.
func (m MicroModel) ActivePower(f units.Hertz) units.Watts {
	return units.Watts(float64(m.Alpha1)*float64(f)) + m.Alpha0
}

// Power evaluates Eq. 4 for an application occupying the given duty cycle
// at frequency f. Duty cycles above 1 are physically impossible; callers
// (the node model) treat them as infeasible configurations before getting
// here, so Power simply evaluates the formula.
func (m MicroModel) Power(duty float64, f units.Hertz) units.Watts {
	return units.Watts(duty * float64(m.ActivePower(f)))
}

// MemoryModel is the memory energy model of Eq. 5:
//
//	E_mem = γ_app·T_mem·E_acc + (1 − γ_app·T_mem)·8·M_app·E_bitidle
//
// AccessTime (T_mem) and AccessPower (the draw during an access window,
// E_acc) form the dynamic term; BitIdlePower (E_bitidle) is the per-bit
// retention leakage that applies whenever the memory is not being accessed.
type MemoryModel struct {
	AccessTime   units.Seconds
	AccessPower  units.Watts
	BitIdlePower units.Watts // per bit
	SizeBytes    int
}

// Power evaluates Eq. 5 for an application performing accessesPerSecond
// memory accesses and occupying appBytes of memory.
func (mm MemoryModel) Power(accessesPerSecond, appBytes float64) units.Watts {
	activeFrac := accessesPerSecond * float64(mm.AccessTime)
	if activeFrac > 1 {
		activeFrac = 1 // memory saturated; cannot be busier than always-on
	}
	dynamic := activeFrac * float64(mm.AccessPower)
	leak := (1 - activeFrac) * 8 * appBytes * float64(mm.BitIdlePower)
	return units.Watts(dynamic + leak)
}

// Platform bundles the hardware of one node type.
type Platform struct {
	Name   string
	Sensor SensorModel
	Micro  MicroModel
	Memory MemoryModel
	Radio  radio.Chip

	ADCBits int // sample resolution (L_adc = ADCBits/8 bytes)

	// MicroFreqs lists the selectable microcontroller frequencies — the
	// f_µC axis of the design space.
	MicroFreqs []units.Hertz
}

// Shimmer returns the default case-study platform. The microcontroller
// frequency grid covers the 1 MHz and 8 MHz points of the paper's Figure 3
// plus the intermediate DCO settings of MSP430-class parts.
func Shimmer() Platform {
	return Platform{
		Name: "shimmer",
		Sensor: SensorModel{
			TransducerPower: 1.35e-3, // ECG front end
			Alpha1:          3.2e-6,  // J per 12-bit conversion
			Alpha0:          0.12e-3,
		},
		Micro: MicroModel{
			Alpha1: 0.726e-9, // ≈ 242 µA/MHz at 3 V, MSP430-class
			Alpha0: 0.21e-3,
		},
		Memory: MemoryModel{
			AccessTime:   100e-9,
			AccessPower:  0.9e-3,
			BitIdlePower: 12e-12,
			SizeBytes:    10 * 1024, // the Shimmer's 10 kB RAM
		},
		Radio:   radio.DefaultCC2420(),
		ADCBits: 12,
		MicroFreqs: []units.Hertz{
			1e6, 2e6, 4e6, 8e6, 16e6,
		},
	}
}

// TelosB returns a TelosB-class telemetry mote: the same MSP430
// microcontroller family and CC2420-class radio as the Shimmer, but a
// duty-cycled digital telemetry front end (temperature/humidity,
// SHT11-class) in place of the ECG chain. Chipset-dependent coefficients
// like these shift where the energy-performance trade-off lies, which is
// why heterogeneous scenarios mix platforms rather than cloning one.
func TelosB() Platform {
	return Platform{
		Name: "telosb",
		Sensor: SensorModel{
			TransducerPower: 0.09e-3, // duty-cycled digital sensor
			Alpha1:          1.1e-6,  // J per 14-bit conversion
			Alpha0:          0.05e-3,
		},
		Micro: MicroModel{
			Alpha1: 0.66e-9, // MSP430F1611-class at 3 V
			Alpha0: 0.18e-3,
		},
		Memory: MemoryModel{
			AccessTime:   100e-9,
			AccessPower:  0.8e-3,
			BitIdlePower: 10e-12,
			SizeBytes:    10 * 1024,
		},
		Radio:   radio.DefaultCC2420(),
		ADCBits: 12,
		MicroFreqs: []units.Hertz{
			1e6, 2e6, 4e6, 8e6,
		},
	}
}

// MicaZ returns a MicaZ-class mote: an ATmega128L microcontroller (higher
// per-cycle switching energy than the MSP430 family and no sub-megahertz
// DCO points), only 4 kB of SRAM, and the same CC2420-class radio as the
// Shimmer. The AVR core's ~3.3 nJ/cycle moves the energy-optimal µC
// frequency and makes memory-heavy applications tighter fits — the
// chipset-dependent shifts a chipset-comparison sweep measures.
func MicaZ() Platform {
	return Platform{
		Name: "micaz",
		Sensor: SensorModel{
			TransducerPower: 0.45e-3, // MTS300-class sensor board, duty-cycled
			Alpha1:          1.8e-6,  // J per 10-bit conversion
			Alpha0:          0.08e-3,
		},
		Micro: MicroModel{
			Alpha1: 3.3e-9, // ATmega128L ≈ 8 mA at 7.37 MHz, 3 V
			Alpha0: 0.45e-3,
		},
		Memory: MemoryModel{
			AccessTime:   110e-9,
			AccessPower:  1.1e-3,
			BitIdlePower: 14e-12,
			SizeBytes:    4 * 1024, // the ATmega128L's 4 kB SRAM
		},
		Radio:   radio.DefaultCC2420(),
		ADCBits: 10,
		MicroFreqs: []units.Hertz{
			1e6, 2e6, 4e6, 7.37e6,
		},
	}
}

// Z1 returns a Zolertia Z1-class mote: a second-generation MSP430F2617
// (lower per-cycle energy than the F1611 and a 16 MHz ceiling), 8 kB RAM,
// a CC2420-class radio and a duty-cycled digital sensor front end.
func Z1() Platform {
	return Platform{
		Name: "z1",
		Sensor: SensorModel{
			TransducerPower: 0.11e-3,
			Alpha1:          0.9e-6, // J per conversion, SHT-class digital chain
			Alpha0:          0.04e-3,
		},
		Micro: MicroModel{
			Alpha1: 0.55e-9, // MSP430F2617-class at 3 V
			Alpha0: 0.15e-3,
		},
		Memory: MemoryModel{
			AccessTime:   90e-9,
			AccessPower:  0.75e-3,
			BitIdlePower: 9e-12,
			SizeBytes:    8 * 1024,
		},
		Radio:   radio.DefaultCC2420(),
		ADCBits: 12,
		MicroFreqs: []units.Hertz{
			1e6, 2e6, 4e6, 8e6, 16e6,
		},
	}
}

// IRIS returns an IRIS-class mote: an ATmega1281 microcontroller (a more
// efficient AVR generation than the MicaZ's 128L) paired with the
// AT86RF230 radio, whose cheaper transmit bits and near-zero sleep draw
// trade against a slow 880 µs wake-up ramp.
func IRIS() Platform {
	return Platform{
		Name: "iris",
		Sensor: SensorModel{
			TransducerPower: 0.40e-3,
			Alpha1:          1.6e-6, // J per 10-bit conversion
			Alpha0:          0.07e-3,
		},
		Micro: MicroModel{
			Alpha1: 2.4e-9, // ATmega1281 ≈ 6 mA at 7.37 MHz, 3 V
			Alpha0: 0.35e-3,
		},
		Memory: MemoryModel{
			AccessTime:   110e-9,
			AccessPower:  1.0e-3,
			BitIdlePower: 12e-12,
			SizeBytes:    8 * 1024,
		},
		Radio:   radio.DefaultAT86RF230(),
		ADCBits: 10,
		MicroFreqs: []units.Hertz{
			1e6, 2e6, 4e6, 7.37e6,
		},
	}
}

// Catalog returns every shipped platform, in a fixed order. The catalog is
// what makes the platform an explorable axis: scenario families sweep it
// the way hand-written scenarios sweep CR grids.
func Catalog() []Platform {
	return []Platform{Shimmer(), TelosB(), MicaZ(), Z1(), IRIS()}
}

// ByName returns the catalog platform with the given name.
func ByName(name string) (Platform, bool) {
	for _, p := range Catalog() {
		if p.Name == name {
			return p, true
		}
	}
	return Platform{}, false
}

// Names returns the catalog platform names, in catalog order.
func Names() []string {
	cat := Catalog()
	names := make([]string, len(cat))
	for i, p := range cat {
		names[i] = p.Name
	}
	return names
}

// Validate checks the platform for physical plausibility.
func (p Platform) Validate() error {
	if p.ADCBits < 1 || p.ADCBits > 24 {
		return fmt.Errorf("platform: %s: ADC bits %d out of range", p.Name, p.ADCBits)
	}
	// Every comparison is written so that NaN fails it.
	if !(p.Sensor.TransducerPower >= 0 && p.Sensor.Alpha1 >= 0 && p.Sensor.Alpha0 >= 0 &&
		p.Micro.Alpha0 >= 0 && p.Memory.AccessPower >= 0 && p.Memory.BitIdlePower >= 0) {
		return fmt.Errorf("platform: %s: sensor, µC overhead and memory coefficients must be non-negative", p.Name)
	}
	if !(p.Micro.Alpha1 > 0) {
		return fmt.Errorf("platform: %s: µC per-cycle energy must be positive", p.Name)
	}
	if p.Memory.SizeBytes <= 0 || !(p.Memory.AccessTime > 0) {
		return fmt.Errorf("platform: %s: memory model incomplete", p.Name)
	}
	if len(p.MicroFreqs) == 0 {
		return fmt.Errorf("platform: %s: no microcontroller frequencies", p.Name)
	}
	for _, f := range p.MicroFreqs {
		if !(f > 0) {
			return fmt.Errorf("platform: %s: non-positive µC frequency %v", p.Name, f)
		}
	}
	return p.Radio.Validate()
}

// SampleBytes returns L_adc in bytes (possibly fractional: 12 bits = 1.5).
func (p Platform) SampleBytes() float64 { return float64(p.ADCBits) / 8 }

// InputRate returns φ_in = f_s · L_adc in bytes per second.
func (p Platform) InputRate(fs units.Hertz) units.BytesPerSecond {
	return units.BytesPerSecond(float64(fs) * p.SampleBytes())
}
