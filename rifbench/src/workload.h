// The benchmark's three closed-loop workloads over service::FusionService.
//
// One batch = a fresh FusionService, every job of the workload submitted,
// run(), each composite checked against its oracle, then the next batch.
// Inputs are generated from the workload seed before any timing; the
// service only ever sees the generated cubes (in memory or on disk).
//
//   host_full    4 Full-mode jobs on distinct in-memory 320x320x105 scenes,
//                4 workers x 2 tiles each, 16 host nodes, 2 pool threads.
//                All pixel work runs through the fused in-memory engine on
//                the shared pool; no file I/O, no wire.
//   stream_disk  2 Streaming jobs over distinct 640x640x105 BIP files,
//                chunk_lines 16, queue_depth 4, 2 workers x 1 tile (2
//                sub-tiles per chunk), 2 pool threads + 2 reader threads.
//                The hsi reader and stream queue work only here.
//   remote_pair  4 Full-mode 320x320x105 jobs, each leased onto the one
//                host node plus 2 in-process socketpair remote workers
//                (3 workers x 2 tiles = 6 tiles, 2 covariance shards); the
//                host pool (1 thread) is only the fallback. Pixels travel
//                the two-round wire protocol; the wire layers work only
//                here.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "hsi/image_cube.h"
#include "hsi/image_io.h"
#include "service/service.h"

namespace rifbench {

enum class Kind { kHostFull, kStreamDisk, kRemotePair };

struct Workload {
  Kind kind = Kind::kHostFull;
  std::string name;
  int jobs = 0;        ///< jobs per batch, one per distinct input
  int width = 0;
  int height = 0;
  int bands = 105;
  int job_workers = 0;
  int tiles_per_worker = 0;
  int chunk_lines = 0;  ///< stream_disk only
  int queue_depth = 0;  ///< stream_disk only

  /// Screening tiles of one job = the oracle's tile count.
  [[nodiscard]] int tiles() const;
  /// Covariance shards of one job = the oracle's shard count.
  [[nodiscard]] int shards() const;
  [[nodiscard]] rif::service::ServiceConfig service_config() const;
};

std::optional<Workload> find_workload(const std::string& name);

/// One input of a workload and its reference result.
struct Input {
  std::optional<rif::hsi::ImageCube> cube;  ///< in-memory workloads
  std::string path;                         ///< stream_disk: BIP cube file
  rif::hsi::RgbImage oracle_composite;
  std::size_t oracle_unique = 0;
};

/// Generate every input from `seed`, write the stream_disk files under
/// `workdir`, and compute each oracle with core::fuse_parallel at the job's
/// tile and covariance-shard counts.
std::vector<Input> make_inputs(const Workload& w, std::uint64_t seed,
                               const std::string& workdir);

/// The oracle gate. remote_pair must be byte-identical (and have run on
/// both remote workers, no host fallback); host_full and stream_disk must
/// meet the cross-engine contract at matched tiling: identical unique-set
/// size and every composite byte within one quantisation level.
bool passes_oracle(const Workload& w, const Input& in,
                   const rif::service::JobRecord& rec);
bool composite_matches(const Workload& w, const Input& in,
                       const rif::hsi::RgbImage& composite,
                       std::size_t unique_set_size);

/// Test hooks for the benchmark's own tests.
struct Inject {
  bool corrupt = false;  ///< flip one composite byte before the oracle gate
  int delay_ms = 0;      ///< wall sleep between the last submit and run()
};

struct BatchResult {
  double turnaround_s = 0.0;  ///< steady clock, first submit -> run() returns
  double run_s = 0.0;         ///< run() alone
  double submit_s = 0.0;      ///< sum of submit() walls
  int attempted = 0;
  int failed = 0;
  double pool_utilization = 0.0;
  double host_pool_wall_s = 0.0;
  double remote_job_s = 0.0;   ///< summed host_seconds of remote-executed jobs
  int remote_requeued_tiles = 0;
  int remote_resends = 0;
  int remote_fallbacks = 0;
  double reader_stall_s = 0.0;   ///< mean over the batch's streaming jobs
  double compute_stall_s = 0.0;
  double peak_buffer_bytes = 0.0;
};

/// Run one batch: the jobs of `only` (all when empty) on a fresh service.
BatchResult run_batch(const Workload& w, const std::vector<Input>& inputs,
                      const std::vector<int>& only, const Inject& inject);

/// Wall seconds to bring a service up and down with an empty queue:
/// construction, run(), destruction (remote_pair: worker spawn and
/// handshake included).
double bring_up_seconds(const Workload& w);

}  // namespace rifbench
