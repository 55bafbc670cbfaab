// Process and host measurements the benchmark takes from outside the
// program: CPU time, the RSS high-water mark, and the host fingerprint
// that says what a number was measured on.
#pragma once

#include <string>

namespace rifbench {

/// Seconds on the steady clock (wall time, never the service's virtual
/// timeline).
double wall_seconds();

/// User + system CPU seconds of this process, all threads (getrusage).
double process_cpu_seconds();

/// Reset the kernel's RSS high-water mark for this process (Linux
/// /proc/self/clear_refs, value 5). False when the kernel refuses.
bool reset_peak_rss();

/// RSS high-water mark (VmHWM) in MB; 0 when unavailable.
double peak_rss_mb();

struct HostFingerprint {
  std::string cpu_model;
  std::string simd_backend;  ///< linalg::kernels::backend()
  int nproc = 0;
  /// cgroup CPU quota in cores; negative when none is set.
  double cgroup_cpu_quota = -1.0;
  double spin_ms_1 = 0.0;        ///< fixed spin work on one thread
  double spin_ms_n = 0.0;        ///< the same work on each of nproc threads
  double spin_scaling = 0.0;     ///< nproc * spin_ms_1 / spin_ms_n
  bool host_parallel = false;    ///< spin_scaling >= 1.5
};

/// Measure the fingerprint, including the spin-loop scaling factor from
/// one thread to nproc threads (about half a second).
HostFingerprint fingerprint();

std::string to_json(const HostFingerprint& host);

}  // namespace rifbench
