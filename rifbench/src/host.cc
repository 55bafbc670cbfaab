#include "host.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "linalg/kernels.h"

namespace rifbench {

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

/// cgroup v2 cpu.max, then v1 cfs quota/period; negative when unlimited.
double cgroup_quota() {
  {
    std::ifstream f("/sys/fs/cgroup/cpu.max");
    std::string quota;
    double period = 0.0;
    if (f >> quota >> period && quota != "max" && period > 0.0) {
      return std::stod(quota) / period;
    }
  }
  std::ifstream q("/sys/fs/cgroup/cpu/cpu.cfs_quota_us");
  std::ifstream p("/sys/fs/cgroup/cpu/cpu.cfs_period_us");
  double quota = -1.0;
  double period = 0.0;
  if (q >> quota && p >> period && quota > 0.0 && period > 0.0) {
    return quota / period;
  }
  return -1.0;
}

/// A fixed amount of dependent integer work the compiler cannot elide.
std::uint64_t spin(std::uint64_t iterations) {
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  return sink;
}

double spin_ms(int threads, std::uint64_t iterations) {
  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) {
    const double t0 = wall_seconds();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([iterations] { (void)spin(iterations); });
    }
    for (auto& t : pool) t.join();
    reps.push_back((wall_seconds() - t0) * 1e3);
  }
  std::sort(reps.begin(), reps.end());
  return reps[1];
}

}  // namespace

HostFingerprint fingerprint() {
  HostFingerprint h;
  h.cpu_model = cpu_model();
  h.simd_backend = rif::linalg::kernels::backend();
  h.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  h.cgroup_cpu_quota = cgroup_quota();
  constexpr std::uint64_t kIterations = 30'000'000;
  h.spin_ms_1 = spin_ms(1, kIterations);
  h.spin_ms_n = spin_ms(h.nproc, kIterations);
  h.spin_scaling =
      h.spin_ms_n > 0.0 ? h.nproc * h.spin_ms_1 / h.spin_ms_n : 0.0;
  h.host_parallel = h.spin_scaling >= 1.5;
  return h;
}

std::string to_json(const HostFingerprint& h) {
  std::ostringstream os;
  os.precision(6);
  std::string model;
  for (const char c : h.cpu_model) {
    if (c == '"' || c == '\\') model += '\\';
    model += c;
  }
  os << "{\"cpu_model\": \"" << model << "\", \"simd_backend\": \""
     << h.simd_backend << "\", \"nproc\": " << h.nproc
     << ", \"cgroup_cpu_quota\": " << h.cgroup_cpu_quota
     << ", \"spin_ms_1\": " << h.spin_ms_1 << ", \"spin_ms_n\": " << h.spin_ms_n
     << ", \"spin_scaling\": " << h.spin_scaling
     << ", \"host_parallel\": " << (h.host_parallel ? "true" : "false") << "}";
  return os.str();
}

}  // namespace rifbench
