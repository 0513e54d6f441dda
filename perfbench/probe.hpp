// Host-speed probe.
//
// A shared host runs the same code at different speeds from one second or
// minute to the next. The probe is a fixed piece of work, frozen in the
// benchmark so that no change to src/ moves it, that the benchmark times
// next to every step and every set-up repeat. A step's wall time divided by
// the probe time next to it, times kProbeRefMs, is the step's time at a
// reference host speed.
#pragma once

namespace perfbench {

// Probe time, in ms, at the reference speed: a 4-vCPU Intel Xeon guest
// (family 6 model 207) at its faster of two speeds; see README.md.
inline constexpr double kProbeRefMs = 1.6;

// Runs the probe once and returns its wall time in ms.
double probe_ms();

}  // namespace perfbench
