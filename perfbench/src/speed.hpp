// Machine-speed probe for the timed run.
//
// On a shared host the same work runs up to 60% slower for minutes at a
// time while other tenants load the cores, caches and memory, and a
// benchmark run cannot average that away. A fixed piece of everyday
// program work (an ordered map, a sort and a priority queue, see
// speed.cpp), timed between the benchmark's ops, slows down with the
// machine. The timed run scales every time it reports by
// kReferenceProbeNs / (median probe time of the run): a change to the
// program moves the scaled time as much as the raw one, while a slower
// machine moves the ops and the probe together and mostly cancels out.
//
// The probe runs in a helper process, so its allocations neither count
// in the benchmark's peak RSS nor change the program's heap. The helper
// runs only while the benchmark waits for its answer, so it never
// competes with the ops, and both are pinned to the CPU the benchmark
// started on.
#pragma once

#include <cstdint>
#include <sys/types.h>

namespace perfbench {

/// Probe time at the reference speed; a scaled time reads as the time
/// the work would take on a machine where the probe takes this long
/// (about a quiet moment of a shared 4-core Intel Xeon VM at 2.0 GHz).
inline constexpr double kReferenceProbeNs = 4.5e6;

class SpeedProbe {
 public:
  /// Starts the helper process and waits until it is ready.
  SpeedProbe();
  /// Closes the helper's pipe and waits for it to end.
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Runs the probe once in the helper; its time in ns.
  std::uint64_t measure();

 private:
  pid_t pid_ = -1;
  int to_helper_ = -1;
  int from_helper_ = -1;
};

}  // namespace perfbench
