#include "workload.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "core/parallel/parallel_pct.h"
#include "host.h"
#include "hsi/cube_io.h"
#include "hsi/scene.h"

namespace rifbench {

namespace rs = rif::service;

int Workload::tiles() const {
  if (kind == Kind::kStreamDisk) {
    return (height / chunk_lines) * job_workers * tiles_per_worker;
  }
  return job_workers * tiles_per_worker;
}

int Workload::shards() const {
  // remote_pair: covariance shards = live remote workers at job start.
  return kind == Kind::kRemotePair ? service_config().remote_workers
                                   : job_workers;
}

rs::ServiceConfig Workload::service_config() const {
  rs::ServiceConfig cfg;
  switch (kind) {
    case Kind::kHostFull:
      cfg.worker_nodes = 16;
      cfg.execution_threads = 2;
      break;
    case Kind::kStreamDisk:
      cfg.worker_nodes = 16;
      cfg.execution_threads = 2;
      break;
    case Kind::kRemotePair:
      cfg.worker_nodes = 1;
      cfg.execution_threads = 1;
      cfg.remote_workers = 2;
      cfg.remote_spawn_local = true;
      break;
  }
  return cfg;
}

std::optional<Workload> find_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "host_full") {
    w.kind = Kind::kHostFull;
    w.jobs = 4;
    w.width = w.height = 320;
    w.job_workers = 4;
    w.tiles_per_worker = 2;
  } else if (name == "stream_disk") {
    w.kind = Kind::kStreamDisk;
    w.jobs = 2;
    w.width = w.height = 640;
    // One tile per worker = 2 sub-tiles per 16-line chunk, so the oracle's
    // 80 even 8-row tiles are exactly the streamed tile boundaries.
    w.job_workers = 2;
    w.tiles_per_worker = 1;
    w.chunk_lines = 16;
    w.queue_depth = 4;
  } else if (name == "remote_pair") {
    w.kind = Kind::kRemotePair;
    w.jobs = 4;
    w.width = w.height = 320;
    // 3 = the one host node + both remote nodes; only remote nodes execute.
    w.job_workers = 3;
    w.tiles_per_worker = 2;
  } else {
    return std::nullopt;
  }
  return w;
}

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Write a file's dirty pages back now. Left to the kernel, the writeback
/// of a freshly written cube starts about 30 s after the write, inside the
/// timed phase; after this the cube stays in the page cache, clean.
void flush_to_disk(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  const bool ok = fd >= 0 && ::fsync(fd) == 0;
  if (fd >= 0) ::close(fd);
  if (!ok) throw std::runtime_error("cannot flush " + path);
}

}  // namespace

std::vector<Input> make_inputs(const Workload& w, std::uint64_t seed,
                               const std::string& workdir) {
  std::vector<Input> inputs(static_cast<std::size_t>(w.jobs));
  rif::core::ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 0; i < w.jobs; ++i) {
    rif::hsi::SceneConfig sc;
    sc.width = w.width;
    sc.height = w.height;
    sc.bands = w.bands;
    sc.seed = splitmix(splitmix(seed) + static_cast<std::uint64_t>(i) +
                       (static_cast<std::uint64_t>(w.kind) << 32));
    rif::hsi::Scene scene = rif::hsi::generate_scene(sc);

    rif::core::ParallelPctConfig pc;
    pc.tiles = w.tiles();
    pc.cov_shards = w.shards();
    const rif::core::PctResult ref =
        rif::core::fuse_parallel(scene.cube, pool, pc);
    Input& in = inputs[static_cast<std::size_t>(i)];
    in.oracle_composite = ref.composite;
    in.oracle_unique = ref.unique_set_size;

    if (w.kind == Kind::kStreamDisk) {
      in.path = workdir + "/scene" + std::to_string(i) + ".bip";
      if (!rif::hsi::save_cube(in.path, scene.cube, rif::hsi::Interleave::kBip,
                               scene.wavelengths)) {
        throw std::runtime_error("cannot write " + in.path);
      }
      flush_to_disk(in.path);
      flush_to_disk(in.path + ".hdr");
    } else {
      in.cube = std::move(scene.cube);
    }
  }
  return inputs;
}

bool composite_matches(const Workload& w, const Input& in,
                       const rif::hsi::RgbImage& composite,
                       std::size_t unique_set_size) {
  if (unique_set_size != in.oracle_unique) return false;
  const auto& want = in.oracle_composite;
  if (composite.width != want.width || composite.height != want.height ||
      composite.data.size() != want.data.size()) {
    return false;
  }
  if (w.kind == Kind::kRemotePair) return composite.data == want.data;
  for (std::size_t i = 0; i < want.data.size(); ++i) {
    if (std::abs(int(composite.data[i]) - int(want.data[i])) > 1) return false;
  }
  return true;
}

bool passes_oracle(const Workload& w, const Input& in,
                   const rs::JobRecord& rec) {
  if (!rec.completed || rec.failed || rec.rejected != rs::RejectReason::kNone) {
    return false;
  }
  if (w.kind == Kind::kRemotePair &&
      (!rec.remote_executed || rec.remote_workers != w.shards())) {
    return false;  // fell back to the host pool or lost a worker
  }
  return composite_matches(w, in, rec.outcome.composite,
                           rec.outcome.unique_set_size);
}

namespace {

rs::JobRequest make_request(const Workload& w, const Input& in) {
  rs::JobRequest r;
  r.tenant = "bench";
  r.config.workers = w.job_workers;
  r.config.tiles_per_worker = w.tiles_per_worker;
  r.config.shape = {w.width, w.height, w.bands};
  if (w.kind == Kind::kStreamDisk) {
    r.mode = rs::JobMode::kStreaming;
    r.cube_path = in.path;
    r.chunk_lines = w.chunk_lines;
    r.queue_depth = w.queue_depth;
  } else {
    r.mode = rs::JobMode::kFull;
    r.config.mode = rif::core::ExecutionMode::kFull;
    r.config.cube = &*in.cube;
  }
  return r;
}

}  // namespace

BatchResult run_batch(const Workload& w, const std::vector<Input>& inputs,
                      const std::vector<int>& only, const Inject& inject) {
  std::vector<int> picked = only;
  if (picked.empty()) {
    for (int i = 0; i < static_cast<int>(inputs.size()); ++i) {
      picked.push_back(i);
    }
  }
  BatchResult b;
  rs::FusionService service(w.service_config());
  std::vector<rs::JobId> ids;
  const double t0 = wall_seconds();
  for (const int i : picked) {
    rs::JobRequest r = make_request(w, inputs[static_cast<std::size_t>(i)]);
    const double s0 = wall_seconds();
    const rs::SubmitResult sr = service.submit(std::move(r));
    b.submit_s += wall_seconds() - s0;
    ids.push_back(sr.accepted() ? sr.id : rs::kNoJob);
  }
  if (inject.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(inject.delay_ms));
  }
  const double r0 = wall_seconds();
  rs::ServiceReport report = service.run();
  const double t1 = wall_seconds();
  b.turnaround_s = t1 - t0;
  b.run_s = t1 - r0;

  b.pool_utilization = report.host_pool.utilization;
  b.host_pool_wall_s = report.host_pool.wall_seconds;
  b.remote_fallbacks = report.remote_fallbacks;
  b.remote_resends = static_cast<int>(
      service.metrics().counter_value("remote.tile_resends") +
      service.metrics().counter_value("remote.shard_resends"));
  int streamed = 0;
  for (std::size_t k = 0; k < picked.size(); ++k) {
    ++b.attempted;
    const rs::JobId id = ids[k];
    const auto it = std::find_if(
        report.jobs.begin(), report.jobs.end(),
        [id](const rs::JobRecord& rec) { return rec.id == id; });
    if (id == rs::kNoJob || it == report.jobs.end()) {
      ++b.failed;
      continue;
    }
    rs::JobRecord& rec = *it;
    if (inject.corrupt && k == 0 && !rec.outcome.composite.data.empty()) {
      rec.outcome.composite.data[0] ^= 0x80;
    }
    if (!passes_oracle(w, inputs[static_cast<std::size_t>(picked[k])], rec)) {
      ++b.failed;
    }
    if (rec.remote_executed) b.remote_job_s += rec.host_seconds;
    b.remote_requeued_tiles += rec.remote_requeued_tiles;
    if (rec.mode == rs::JobMode::kStreaming) {
      ++streamed;
      b.reader_stall_s += rec.stream.reader_stall_seconds;
      b.compute_stall_s += rec.stream.compute_stall_seconds;
      b.peak_buffer_bytes += static_cast<double>(rec.stream.peak_buffer_bytes);
    }
  }
  if (streamed > 0) {
    b.reader_stall_s /= streamed;
    b.compute_stall_s /= streamed;
    b.peak_buffer_bytes /= streamed;
  }
  return b;
}

double bring_up_seconds(const Workload& w) {
  const double t0 = wall_seconds();
  {
    rs::FusionService service(w.service_config());
    (void)service.run();
  }
  return wall_seconds() - t0;
}

}  // namespace rifbench
