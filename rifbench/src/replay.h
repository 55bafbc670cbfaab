// Per-layer replay: one job of a workload driven through each layer's
// public functions, with a benchmark-side span around every call. The
// program's own tracer stays off; every time here is taken from outside
// the layer being timed.
//
// The replay follows the schedule of the engine the service runs for the
// workload (same tiles, same pool size, same fold order), but with a
// barrier between stages so each stage's spans cover only that stage:
//   host_full    screen / moments per tile on the pool, in-order
//                core::fold_unique_moments, covariance + Jacobi,
//                transform_and_map_range per tile.
//   stream_disk  per 16-line chunk: ChunkedCubeReader::read_lines, then
//                the host_full stages per sub-tile (pass 1); eigen; per
//                chunk read + transform_and_map_chunk (pass 2). Reads run
//                inline, so the replay does not overlap I/O with compute
//                as the service's reader thread does.
//   remote_pair  the coordinator/worker protocol without sockets:
//                core::screen_range per tile, in-order UniqueSet::merge,
//                CovarianceAccumulator per shard, covariance + Jacobi,
//                transform_and_map_chunk per tile; every protocol message
//                of the job goes through its message codec, the
//                scp::WireEnvelope codec and the net frame codec.
// The replayed composite goes through the same oracle gate as the
// service's.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workload.h"

namespace rifbench {

struct ReplayResult {
  /// Wall time covered by each layer's spans (the union of its span
  /// intervals, so parallel spans of one stage count once), in seconds.
  std::map<std::string, double> layer_seconds;
  std::uint64_t screen_angle_tests = 0;
  std::uint64_t fold_angle_tests = 0;
  std::size_t unique_k = 0;
  int jacobi_sweeps = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t wire_bytes = 0;  ///< framed bytes of every protocol frame
  std::uint64_t frames = 0;
  bool correct = false;  ///< replayed composite passes the oracle gate
};

/// Replay input `index` of `w` (its pool is built inside).
ReplayResult replay_job(const Workload& w, const Input& in);

}  // namespace rifbench
