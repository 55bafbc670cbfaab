// rifbench — wall-clock benchmark of service::FusionService.
//
//   rifbench --workload <host_full|stream_disk|remote_pair> --seed <n>
//            --seconds <s> --trace <0|1> --workdir <dir>
//            [--inject corrupt | --inject delay_ms=<n>]
//
// --trace 0 runs the workload as a closed loop of batches for --seconds
// (at least 3 tail windows of batches, see timed_run) and reports the
// end-to-end metrics, each a median over batches or windows, and
// setup_s, the median of many empty bring-ups. --trace 1 repeats, for --seconds
// (at least 3 rounds), one untraced batch, one untraced single-job run and
// one per-layer replay of that job (replay.h), and reports the per-layer
// table. The program's own span tracer and ops plane stay off in both.
//
// Inputs are generated from --seed and written under --workdir before any
// timing. Every composite passes the oracle gate (workload.h) or the run
// is incorrect: the record says so and the exit code is 1. The last
// stdout line is the run's record, one JSON object: workload, seed,
// correct, attempted, failed, metrics (name -> value, unit), details and
// the host fingerprint. Times come from the steady clock; the service's
// virtual-time figures are never reported.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "host.h"
#include "replay.h"
#include "workload.h"

namespace rifbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir;
  Inject inject;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rifbench: " << why
            << "\nusage: rifbench --workload <host_full|stream_disk|"
               "remote_pair> --seed <n> --seconds <s> --trace <0|1> "
               "--workdir <dir> [--inject corrupt|delay_ms=<n>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = std::stoi(val);
    } else if (key == "--workdir") {
      a.workdir = val;
    } else if (key == "--inject") {
      if (val == "corrupt") {
        a.inject.corrupt = true;
      } else if (val.rfind("delay_ms=", 0) == 0) {
        a.inject.delay_ms = std::stoi(val.substr(9));
      } else {
        usage("unknown --inject " + val);
      }
    } else {
      usage("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.workdir.empty() || a.seconds <= 0.0 ||
      (a.trace != 0 && a.trace != 1)) {
    usage("--workload, --workdir, --seconds > 0 and --trace 0|1 are required");
  }
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Metrics in print order, with full precision.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      os << (i ? ", " : "") << "\"" << rows_[i].name
         << "\": {\"value\": " << rows_[i].value << ", \"unit\": \""
         << rows_[i].unit << "\"}";
    }
    os << "}";
    return os.str();
  }
  void print_table(std::ostream& os) const {
    for (const auto& r : rows_) {
      os << "  " << r.name << " = " << r.value << " " << r.unit << "\n";
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

struct Outcome {
  int attempted = 0;
  int failed = 0;
  Metrics metrics;
  std::ostringstream details;  ///< JSON members, without braces
};

/// Empty bring-up/tear-down cycles behind setup_s. Each is well under a
/// millisecond and dominated by thread start/wake latency, which on a
/// shared host swings by tens of percent from one second to the next, so
/// the cycles are spread evenly over the timed phase (between batches)
/// and setup_s is their median.
constexpr int kSetupCycles = 301;

/// Comma-separated values with two decimals, for the record's samples.
std::string list_json(const std::vector<double>& v, double scale) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(2);
  os << "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    os << (i ? ", " : "") << v[i] * scale;
  }
  os << "]";
  return os.str();
}

/// Consecutive batches per window of turnaround_tail_ms.
constexpr std::size_t kTailWindow = 10;

/// Closed loop for --seconds. Each batch is measured on its own (wall
/// from construction to destruction, CPU, RSS high-water reset before it)
/// and every end-to-end metric is a median over batches, so a burst of
/// host contention moves the run's figures only if it covers most of it.
/// The tail is the median over windows of kTailWindow consecutive batches
/// of each window's p90 (its second-highest turnaround): a slow batch in
/// every window moves it, a neighbour's burst that stalls a few seconds of
/// the run does not. The run-wide highest percentile with 10 samples
/// beyond it, the whole-phase figures and every batch sample go in the
/// record's details.
void timed_run(const Workload& w, const std::vector<Input>& inputs,
               const Args& args, Outcome& out) {
  (void)run_batch(w, inputs, {}, {});  // warm-up: caches, page cache, allocator

  std::vector<double> turnaround, rate, cpu_per_job, rss, setup;
  bool rss_reset = true;
  const double cpu0 = process_cpu_seconds();
  const double t0 = wall_seconds();
  int correct_jobs = 0;
  while (wall_seconds() - t0 < args.seconds ||
         turnaround.size() < 3 * kTailWindow) {
    Inject inject = args.inject;
    inject.corrupt = args.inject.corrupt && turnaround.empty();
    rss_reset = reset_peak_rss() && rss_reset;
    const double c0 = process_cpu_seconds();
    const double w0 = wall_seconds();
    const BatchResult b = run_batch(w, inputs, {}, inject);
    const double cycle = wall_seconds() - w0;
    const int correct = b.attempted - b.failed;
    cpu_per_job.push_back((process_cpu_seconds() - c0) / b.attempted);
    rss.push_back(peak_rss_mb());
    rate.push_back(correct / cycle);
    turnaround.push_back(b.turnaround_s);
    out.attempted += b.attempted;
    out.failed += b.failed;
    correct_jobs += correct;
    const double due =
        kSetupCycles * std::min(1.0, (wall_seconds() - t0) / args.seconds);
    while (static_cast<double>(setup.size()) < due) {
      setup.push_back(bring_up_seconds(w));
    }
  }
  while (setup.size() < kSetupCycles) setup.push_back(bring_up_seconds(w));
  const double wall = wall_seconds() - t0;
  const double cpu = process_cpu_seconds() - cpu0;

  // Highest percentile with at least 10 samples beyond it, over the run.
  std::vector<double> sorted = turnaround;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const double run_tail = sorted[n - 11];
  const double run_tail_pct =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  // Per-window p90; the last window takes the remainder.
  std::vector<double> window_tails;
  const std::size_t windows = n / kTailWindow;
  for (std::size_t k = 0; k < windows; ++k) {
    const auto first = turnaround.begin() +
                       static_cast<std::ptrdiff_t>(k * kTailWindow);
    const auto last = k + 1 == windows
                          ? turnaround.end()
                          : first + static_cast<std::ptrdiff_t>(kTailWindow);
    std::vector<double> win(first, last);
    std::sort(win.begin(), win.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.9 * static_cast<double>(win.size())));
    window_tails.push_back(win[rank - 1]);
  }

  out.metrics.add("jobs_per_s", median(rate), "jobs/s");
  out.metrics.add("turnaround_p50_ms", median(turnaround) * 1e3, "ms");
  out.metrics.add("turnaround_tail_ms", median(window_tails) * 1e3, "ms");
  out.metrics.add("cpu_ms_per_job", median(cpu_per_job) * 1e3, "ms");
  out.metrics.add("peak_rss_mb", median(rss), "MB");
  out.metrics.add("setup_s", median(setup), "s");
  out.metrics.add("failed_frac",
                  static_cast<double>(out.failed) / out.attempted, "ratio");
  out.details << "\"batches\": " << n << ", \"jobs_per_batch\": " << w.jobs
              << ", \"timed_seconds\": " << wall
              << ", \"phase_jobs_per_s\": " << correct_jobs / wall
              << ", \"phase_cpu_ms_per_job\": " << cpu * 1e3 / out.attempted
              << ", \"phase_peak_rss_mb\": "
              << *std::max_element(rss.begin(), rss.end())
              << ", \"turnaround_samples\": " << n
              << ", \"tail_window_batches\": " << kTailWindow
              << ", \"tail_windows\": " << windows
              << ", \"tail_window_percentile\": 90"
              << ", \"run_tail_ms\": " << run_tail * 1e3
              << ", \"run_tail_percentile\": " << run_tail_pct
              << ", \"samples_beyond_run_tail\": 10"
              << ", \"setup_cycles\": " << kSetupCycles
              << ", \"rss_reset\": " << (rss_reset ? "true" : "false")
              << ", \"batch_turnaround_ms\": " << list_json(turnaround, 1e3)
              << ", \"batch_jobs_per_s\": " << list_json(rate, 1.0);
}

void traced_run(const Workload& w, const std::vector<Input>& inputs,
                const Args& args, Outcome& out) {
  std::map<std::string, std::vector<double>> series;
  const auto keep = [&series](const std::string& name, double v) {
    series[name].push_back(v);
  };
  ReplayResult last;
  int remote_requeued = 0, remote_resends = 0, remote_fallbacks = 0;
  const double t0 = wall_seconds();
  int rounds = 0;
  while (wall_seconds() - t0 < args.seconds || rounds < 3) {
    ++rounds;
    const BatchResult batch = run_batch(w, inputs, {}, args.inject);
    const BatchResult single = run_batch(w, inputs, {0}, {});
    const ReplayResult r = replay_job(w, inputs[0]);
    out.attempted += batch.attempted + single.attempted + 1;
    out.failed += batch.failed + single.failed + (r.correct ? 0 : 1);
    remote_requeued +=
        batch.remote_requeued_tiles + single.remote_requeued_tiles;
    remote_resends += batch.remote_resends + single.remote_resends;
    remote_fallbacks += batch.remote_fallbacks + single.remote_fallbacks;

    double layers = 0.0;
    for (const auto& [name, s] : r.layer_seconds) {
      keep(name, s * 1e3);
      layers += s;
    }
    const auto read = r.layer_seconds.find("hsi.read");
    const double read_s = read == r.layer_seconds.end() ? 0.0 : read->second;
    keep("hsi.read_mb_per_s",
         read_s > 0.0 ? static_cast<double>(r.bytes_read) / (1 << 20) / read_s
                      : 0.0);
    keep("core.pool_utilization", batch.pool_utilization);
    const auto overhead = [](const BatchResult& b) {
      return b.run_s - b.host_pool_wall_s - b.remote_job_s;
    };
    keep("service.overhead_ms", overhead(batch) * 1e3);
    keep("service.submit_us", batch.submit_s / batch.attempted * 1e6);
    keep("stream.reader_stall_ms", batch.reader_stall_s * 1e3);
    keep("stream.compute_stall_ms", batch.compute_stall_s * 1e3);
    keep("stream.peak_buffer_mb", batch.peak_buffer_bytes / (1 << 20));
    keep("job_wall_ms", single.turnaround_s * 1e3);
    // Negative when the service overlaps stages the replay runs one after
    // another (stream_disk's reader thread, remote_pair's coordinator and
    // workers encoding side by side).
    keep("unattributed_ms",
         (single.turnaround_s - overhead(single) - layers) * 1e3);
    last = r;
  }

  const auto med = [&series](const std::string& name) {
    const auto it = series.find(name);
    return it == series.end() ? 0.0 : median(it->second);
  };
  Metrics& m = out.metrics;
  m.add("core.screen_ms", med("core.screen"), "ms");
  m.add("core.screen_angle_tests",
        static_cast<double>(last.screen_angle_tests), "count");
  m.add("core.fold_ms", med("core.fold"), "ms");
  m.add("core.fold_angle_tests", static_cast<double>(last.fold_angle_tests),
        "count");
  m.add("core.unique_k", static_cast<double>(last.unique_k), "count");
  m.add("linalg.moments_ms", med("linalg.moments"), "ms");
  m.add("linalg.eigen_ms", med("linalg.eigen"), "ms");
  m.add("linalg.jacobi_sweeps", last.jacobi_sweeps, "count");
  m.add("core.transform_ms", med("core.transform"), "ms");
  m.add("hsi.read_ms", med("hsi.read"), "ms");
  m.add("hsi.read_mb_per_s", med("hsi.read_mb_per_s"), "MB/s");
  m.add("hsi.bytes_read", static_cast<double>(last.bytes_read), "bytes");
  m.add("stream.reader_stall_ms", med("stream.reader_stall_ms"), "ms");
  m.add("stream.compute_stall_ms", med("stream.compute_stall_ms"), "ms");
  m.add("stream.peak_buffer_mb", med("stream.peak_buffer_mb"), "MB");
  m.add("core.msg_codec_ms", med("core.msg_codec"), "ms");
  m.add("scp.envelope_ms", med("scp.envelope"), "ms");
  m.add("net.frame_ms", med("net.frame"), "ms");
  m.add("net.wire_mb_per_job",
        static_cast<double>(last.wire_bytes) / (1 << 20), "MB");
  m.add("net.frames_per_job", static_cast<double>(last.frames), "count");
  m.add("remote.requeued_tiles", remote_requeued, "count");
  m.add("remote.resends", remote_resends, "count");
  m.add("remote.fallbacks", remote_fallbacks, "count");
  m.add("core.pool_utilization", med("core.pool_utilization"), "ratio");
  m.add("service.overhead_ms", med("service.overhead_ms"), "ms");
  m.add("service.submit_us", med("service.submit_us"), "us");
  m.add("job_wall_ms", med("job_wall_ms"), "ms");
  m.add("unattributed_ms", med("unattributed_ms"), "ms");
  out.details << "\"rounds\": " << rounds
              << ", \"replayed_input\": 0, \"replay_correct\": "
              << (last.correct ? "true" : "false");
}

int run(const Args& args) {
  const auto w = find_workload(args.workload);
  if (!w) usage("unknown workload " + args.workload);

  const double g0 = wall_seconds();
  const std::vector<Input> inputs = make_inputs(*w, args.seed, args.workdir);
  const double inputs_s = wall_seconds() - g0;
  const HostFingerprint host = fingerprint();

  Outcome out;
  if (args.trace == 0) {
    timed_run(*w, inputs, args, out);
  } else {
    traced_run(*w, inputs, args, out);
  }
  const bool correct = out.failed == 0 && out.attempted > 0;

  std::cerr << "rifbench " << w->name << " seed " << args.seed << " trace "
            << args.trace << ": " << out.attempted << " jobs, " << out.failed
            << " failed" << (correct ? "" : "  ** ORACLE GATE FAILED **")
            << (host.host_parallel ? "" : "  (host_parallel: false)") << "\n";
  out.metrics.print_table(std::cerr);

  std::ostringstream rec;
  rec.precision(10);
  rec << "{\"workload\": \"" << w->name << "\", \"seed\": " << args.seed
      << ", \"seconds\": " << args.seconds << ", \"trace\": " << args.trace
      << ", \"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
      << ", \"metrics\": " << out.metrics.json() << ", \"details\": {"
      << out.details.str() << ", \"inputs_seconds\": " << inputs_s
      << "}, \"host\": " << to_json(host) << "}";
  std::cout << rec.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rifbench

int main(int argc, char** argv) {
  try {
    return rifbench::run(rifbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "rifbench: " << e.what() << "\n";
    return 2;
  }
}
