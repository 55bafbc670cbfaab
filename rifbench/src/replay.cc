#include "replay.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/distributed/messages.h"
#include "core/parallel/parallel_pct.h"
#include "core/pct.h"
#include "core/spectral_angle.h"
#include "host.h"
#include "hsi/chunked_reader.h"
#include "hsi/partition.h"
#include "linalg/jacobi_eig.h"
#include "linalg/stats.h"
#include "net/frame.h"
#include "scp/wire.h"

namespace rifbench {

namespace {

namespace core = rif::core;
namespace hsi = rif::hsi;
namespace linalg = rif::linalg;
namespace scp = rif::scp;

/// Benchmark-side spans, from any thread. Layer time is the union of the
/// layer's intervals.
class Spans {
 public:
  template <class F>
  void time(const char* layer, F&& f) {
    const double t0 = wall_seconds();
    f();
    const double t1 = wall_seconds();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[layer].emplace_back(t0, t1);
  }

  [[nodiscard]] std::map<std::string, double> covered() {
    std::map<std::string, double> out;
    for (auto& [layer, iv] : spans_) {
      std::sort(iv.begin(), iv.end());
      double total = 0.0;
      double lo = iv.front().first;
      double hi = iv.front().second;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          total += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      out[layer] = total + (hi - lo);
    }
    return out;
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<std::pair<double, double>>> spans_;
};

void require(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("replay: ") + what);
}

/// The service's job parameters (JobRequest leaves them at their defaults).
const core::FusionJobConfig kJob{};

/// Pass-1 state of the fused engine: per-tile screen and moment sums,
/// folded in tile order into one unique set + moment accumulator.
struct ScreenFold {
  int bands = 0;
  core::UniqueSet unique{1, kJob.screening_threshold};
  std::optional<linalg::MomentAccumulator> total;
  std::vector<double> origin;
  std::vector<std::uint8_t> dropped;
  std::uint64_t screen_tests = 0;
  std::uint64_t fold_tests = 0;

  /// Rows [0, rows) of BIP `data` (width pixels a row), split into
  /// `tile_count` row tiles exactly as the engines split them.
  void add_rows(const float* data, int width, int rows, int tile_count,
                core::ThreadPool& pool, Spans& spans) {
    if (origin.empty()) origin.assign(data, data + bands);
    const auto tiles = hsi::partition_rows({width, rows, bands}, tile_count);
    const int n = static_cast<int>(tiles.size());
    std::vector<core::UniqueSet> sets;
    std::vector<linalg::MomentAccumulator> moments;
    for (int i = 0; i < n; ++i) {
      sets.emplace_back(bands, kJob.screening_threshold);
      moments.emplace_back(bands, origin);
    }
    std::atomic<std::uint64_t> tests{0};
    pool.parallel_tasks(n, [&](int i) {
      std::uint64_t local = 0;
      core::UniqueSet& set = sets[static_cast<std::size_t>(i)];
      spans.time("core.screen", [&] {
        for (std::int64_t p = tiles[i].first_flat_index();
             p < tiles[i].end_flat_index(); ++p) {
          set.screen({data + p * bands, static_cast<std::size_t>(bands)},
                     &local);
        }
      });
      tests += local;
    });
    screen_tests += tests.load();
    // Blocks of 32 members in admission order: the same add_block calls
    // the fused engine makes while it screens.
    pool.parallel_tasks(n, [&](int i) {
      const core::UniqueSet& set = sets[static_cast<std::size_t>(i)];
      linalg::MomentAccumulator& mom = moments[static_cast<std::size_t>(i)];
      spans.time("linalg.moments", [&] {
        constexpr std::size_t kBlock = 32;
        for (std::size_t m = 0; m < set.size(); m += kBlock) {
          mom.add_block(set.flat().data() + m * bands,
                        static_cast<int>(std::min(kBlock, set.size() - m)));
        }
      });
    });
    spans.time("core.fold", [&] {
      for (int i = 0; i < n; ++i) {
        const auto k = static_cast<std::size_t>(i);
        if (!total) {
          unique = std::move(sets[k]);
          total = std::move(moments[k]);
          continue;
        }
        core::fold_unique_moments(unique, *total, sets[k], moments[k], pool,
                                  dropped, &fold_tests);
      }
    });
  }
};

struct Basis {
  linalg::Matrix transform;
  std::vector<double> mean;
  std::array<core::ComponentScale, 3> scales{};
};

Basis solve(const linalg::MomentAccumulator& total, Spans& spans,
            ReplayResult& out) {
  linalg::EigenResult eig;
  Basis basis;
  spans.time("linalg.eigen", [&] {
    basis.mean = total.mean();
    eig = linalg::jacobi_eigen(total.covariance(), kJob.jacobi);
  });
  out.jacobi_sweeps = eig.sweeps;
  basis.transform = core::transform_matrix(eig.vectors, kJob.output_components);
  basis.scales = core::scales_from_eigenvalues(eig.values);
  return basis;
}

ReplayResult replay_host(const Workload& w, const Input& in) {
  ReplayResult out;
  Spans spans;
  const hsi::ImageCube& cube = *in.cube;
  core::ThreadPool pool(w.service_config().execution_threads);
  ScreenFold sf;
  sf.bands = cube.bands();
  sf.add_rows(cube.raw().data(), cube.width(), cube.height(), w.tiles(), pool,
              spans);
  const Basis b = solve(*sf.total, spans, out);

  const auto tiles = hsi::partition_rows(
      {cube.width(), cube.height(), cube.bands()}, w.tiles());
  std::vector<std::vector<float>> planes(
      static_cast<std::size_t>(kJob.output_components),
      std::vector<float>(static_cast<std::size_t>(cube.pixel_count())));
  hsi::RgbImage composite(cube.width(), cube.height());
  pool.parallel_tasks(static_cast<int>(tiles.size()), [&](int i) {
    spans.time("core.transform", [&] {
      core::transform_and_map_range(cube, b.transform, b.mean, b.scales, planes,
                                    composite, tiles[i].first_flat_index(),
                                    tiles[i].end_flat_index());
    });
  });

  out.screen_angle_tests = sf.screen_tests;
  out.fold_angle_tests = sf.fold_tests;
  out.unique_k = sf.unique.size();
  out.layer_seconds = spans.covered();
  out.correct = composite_matches(w, in, composite, out.unique_k);
  return out;
}

ReplayResult replay_stream(const Workload& w, const Input& in) {
  ReplayResult out;
  Spans spans;
  auto reader = hsi::ChunkedCubeReader::open(in.path);
  require(reader.has_value(), "cannot open the cube file");
  const int W = reader->samples();
  const int H = reader->lines();
  const int B = reader->bands();
  core::ThreadPool pool(w.service_config().execution_threads);
  std::vector<float> buf;
  const auto read = [&](int line0, int rows) {
    bool ok = false;
    spans.time("hsi.read", [&] { ok = reader->read_lines(line0, rows, buf); });
    require(ok, "read_lines failed");
    out.bytes_read += reader->chunk_bytes(rows);
  };

  ScreenFold sf;
  sf.bands = B;
  const int sub_tiles = w.job_workers * w.tiles_per_worker;
  for (int line0 = 0; line0 < H; line0 += w.chunk_lines) {
    const int rows = std::min(w.chunk_lines, H - line0);
    read(line0, rows);
    sf.add_rows(buf.data(), W, rows, sub_tiles, pool, spans);
  }
  const Basis b = solve(*sf.total, spans, out);

  const std::vector<double> bias = core::projection_bias(b.transform, b.mean);
  hsi::RgbImage composite(W, H);
  for (int line0 = 0; line0 < H; line0 += w.chunk_lines) {
    const int rows = std::min(w.chunk_lines, H - line0);
    read(line0, rows);
    const std::int64_t first = static_cast<std::int64_t>(line0) * W;
    spans.time("core.transform", [&] {
      pool.parallel_for(static_cast<std::int64_t>(rows) * W,
                        [&](std::int64_t lo, std::int64_t hi) {
                          core::transform_and_map_chunk(
                              buf.data() + lo * B, hi - lo, b.transform, bias,
                              b.scales, nullptr, composite, first + lo);
                        });
    });
  }

  out.screen_angle_tests = sf.screen_tests;
  out.fold_angle_tests = sf.fold_tests;
  out.unique_k = sf.unique.size();
  out.layer_seconds = spans.covered();
  out.correct = composite_matches(w, in, composite, out.unique_k);
  return out;
}

/// Every protocol frame of the replayed job through the envelope and frame
/// codecs, as RemoteWorkerPool sends and receives it.
class Wire {
 public:
  Wire(Spans& spans, ReplayResult& out, std::int64_t job)
      : spans_(spans), out_(out), job_(job) {}

  void app(const scp::Message& msg) {
    scp::WireEnvelope env;
    env.kind = scp::FrameKind::kApp;
    env.seq = static_cast<std::uint64_t>(job_);
    env.msg_type = msg.type;
    env.declared = msg.declared_bytes;
    env.payload = msg.payload;
    ship(env);
  }

  void control(scp::FrameKind kind, std::vector<std::uint8_t> payload = {}) {
    scp::WireEnvelope env;
    env.kind = kind;
    env.payload = std::move(payload);
    ship(env);
  }

 private:
  void ship(const scp::WireEnvelope& env) {
    std::vector<std::uint8_t> bytes;
    std::optional<scp::WireEnvelope> back;
    spans_.time("scp.envelope", [&] {
      bytes = env.encode();
      back = scp::WireEnvelope::try_decode(bytes);
    });
    require(back.has_value() && back->payload == env.payload,
            "envelope round trip");
    std::vector<std::uint8_t> frame;
    std::size_t delivered = 0;
    bool ok = false;
    spans_.time("net.frame", [&] {
      frame = rif::net::encode_frame(bytes);
      ok = assembler_.feed(frame.data(), frame.size(),
                           [&](std::vector<std::uint8_t> p) {
                             delivered = p.size();
                           });
    });
    require(ok && delivered == bytes.size(), "frame round trip");
    out_.wire_bytes += frame.size();
    ++out_.frames;
  }

  Spans& spans_;
  ReplayResult& out_;
  std::int64_t job_;
  rif::net::FrameAssembler assembler_;
};

/// Encode + try_decode of one fusion message; returns the decoded copy
/// (what the receiving side works from) and ships the encoded one.
template <class Msg>
Msg codec(Spans& spans, Wire& wire, const Msg& msg) {
  scp::Message encoded;
  std::optional<Msg> back;
  spans.time("core.msg_codec", [&] {
    encoded = msg.encode(0);
    back = Msg::try_decode(encoded);
  });
  require(back.has_value(), "message round trip");
  wire.app(encoded);
  return std::move(*back);
}

ReplayResult replay_remote(const Workload& w, const Input& in) {
  ReplayResult out;
  Spans spans;
  const hsi::ImageCube& cube = *in.cube;
  const int bands = cube.bands();
  const int workers = w.shards();  // remote workers
  const auto tiles =
      hsi::partition_rows({cube.width(), cube.height(), bands}, w.tiles());
  const int T = static_cast<int>(tiles.size());
  core::ThreadPool pool(workers);  // the workers compute side by side
  Wire wire(spans, out, 1);

  // Round 1: tiles out, per-tile unique sets back, merged in tile order.
  const scp::JobStartBody start{1, cube.width(), cube.height(), bands,
                                kJob.screening_threshold,
                                kJob.output_components};
  std::vector<std::uint8_t> start_bytes;
  spans.time("core.msg_codec", [&] { start_bytes = start.encode(); });
  for (int v = 0; v < workers; ++v) {
    wire.control(scp::FrameKind::kJobStart, start_bytes);
  }
  for (int r = 0; r < T + workers; ++r) wire.app({core::kRequestWork, {}, 0});
  for (int t = 0; t < T; ++t) {
    core::TileAssignMsg assign;
    assign.tile = core::WireTile::from(tiles[t]);
    const auto first = cube.pixel(tiles[t].first_flat_index());
    assign.data.assign(first.data(), first.data() + tiles[t].pixels() * bands);
    (void)codec(spans, wire, assign);
  }
  for (int v = 0; v < workers; ++v) wire.app({core::kNoMoreTiles, {}, 0});

  std::vector<std::optional<core::UniqueSet>> sets(static_cast<std::size_t>(T));
  std::vector<std::uint64_t> tests(static_cast<std::size_t>(T), 0);
  pool.parallel_tasks(T, [&](int t) {
    spans.time("core.screen", [&] {
      sets[t] = core::screen_range(cube, tiles[t].first_flat_index(),
                                   tiles[t].end_flat_index(),
                                   kJob.screening_threshold, &tests[t]);
    });
  });
  core::UniqueSet global(bands, kJob.screening_threshold);
  for (int t = 0; t < T; ++t) {
    out.screen_angle_tests += tests[t];
    core::ScreenResultMsg result;
    result.tile = core::WireTile::from(tiles[t]);
    result.unique_count = sets[t]->size();
    result.comparisons = tests[t];
    result.vectors = sets[t]->flat();
    const core::ScreenResultMsg got = codec(spans, wire, result);
    spans.time("core.fold", [&] {
      const core::UniqueSet tile_set = core::UniqueSet::from_flat(
          bands, kJob.screening_threshold, got.vectors);
      global.merge(tile_set, &out.fold_angle_tests);
    });
  }
  out.unique_k = global.size();

  // Round 2: mean, covariance shards out, shard sums back in shard order.
  std::vector<double> mean;
  spans.time("linalg.moments", [&] {
    linalg::MeanAccumulator acc(bands);
    for (std::size_t i = 0; i < global.size(); ++i) acc.add(global.member(i));
    mean = acc.mean();
  });
  const auto chunks = hsi::partition_range(
      static_cast<std::int64_t>(global.size()), workers);
  std::vector<core::CovShardMsg> shards;
  for (int s = 0; s < workers; ++s) {
    core::CovShardMsg shard;
    shard.shard_index = static_cast<std::uint64_t>(s);
    shard.shard_count = static_cast<std::uint64_t>(chunks[s].size());
    shard.mean = mean;
    for (std::int64_t i = chunks[s].begin; i < chunks[s].end; ++i) {
      const auto m = global.member(static_cast<std::size_t>(i));
      shard.vectors.insert(shard.vectors.end(), m.begin(), m.end());
    }
    shards.push_back(codec(spans, wire, shard));
  }
  std::vector<std::optional<linalg::CovarianceAccumulator>> sums(
      static_cast<std::size_t>(workers));
  pool.parallel_tasks(workers, [&](int s) {
    const core::CovShardMsg& shard = shards[static_cast<std::size_t>(s)];
    spans.time("linalg.moments", [&] {
      linalg::CovarianceAccumulator acc(bands, shard.mean);
      constexpr std::uint64_t kRows = linalg::CovarianceAccumulator::kBlockRows;
      for (std::uint64_t i = 0; i < shard.shard_count; i += kRows) {
        acc.add_block(shard.vectors.data() + i * bands,
                      static_cast<int>(std::min(kRows, shard.shard_count - i)));
      }
      sums[static_cast<std::size_t>(s)] = std::move(acc);
    });
  });
  linalg::CovarianceAccumulator total(bands, mean);
  for (int s = 0; s < workers; ++s) {
    core::CovSumMsg sum;
    sum.shard_index = static_cast<std::uint64_t>(s);
    std::optional<linalg::CovarianceAccumulator> acc;
    spans.time("core.msg_codec", [&] {
      sum.accumulator = sums[static_cast<std::size_t>(s)]->encode();
    });
    const core::CovSumMsg got = codec(spans, wire, sum);
    spans.time("core.msg_codec", [&] {
      acc = linalg::CovarianceAccumulator::try_decode(got.accumulator);
    });
    require(acc.has_value(), "covariance accumulator round trip");
    spans.time("linalg.eigen", [&] { total.merge(*acc); });
  }
  linalg::EigenResult eig;
  spans.time("linalg.eigen", [&] {
    eig = linalg::jacobi_eigen(total.covariance(), kJob.jacobi);
  });
  out.jacobi_sweeps = eig.sweeps;

  // Transform broadcast, colour tiles back.
  const linalg::Matrix t =
      core::transform_matrix(eig.vectors, kJob.output_components);
  const auto scales = core::scales_from_eigenvalues(eig.values);
  core::TransformMsg tm;
  tm.components = kJob.output_components;
  tm.bands = bands;
  tm.matrix.assign(t.data(), t.data() + t.rows() * t.cols());
  tm.mean = mean;
  for (const auto& s : scales) {
    tm.scale_mean.push_back(s.mean);
    tm.scale_gain.push_back(s.gain);
  }
  for (int v = 0; v < workers; ++v) (void)codec(spans, wire, tm);
  const std::vector<double> bias = core::projection_bias(t, mean);
  hsi::RgbImage worker_rgb(cube.width(), cube.height());
  pool.parallel_tasks(T, [&](int i) {
    spans.time("core.transform", [&] {
      const std::int64_t first = tiles[i].first_flat_index();
      core::transform_and_map_chunk(cube.pixel(first).data(), tiles[i].pixels(),
                                    t, bias, scales, nullptr, worker_rgb,
                                    first);
    });
  });
  hsi::RgbImage composite(cube.width(), cube.height());
  for (int i = 0; i < T; ++i) {
    core::ColorTileMsg color;
    color.tile = core::WireTile::from(tiles[i]);
    const auto lo = static_cast<std::size_t>(tiles[i].first_flat_index()) * 3;
    const auto n = static_cast<std::size_t>(tiles[i].pixels()) * 3;
    const auto src = worker_rgb.data.begin() + static_cast<std::ptrdiff_t>(lo);
    color.rgb.assign(src, src + static_cast<std::ptrdiff_t>(n));
    const core::ColorTileMsg got = codec(spans, wire, color);
    require(got.rgb.size() == n, "colour tile size");
    std::copy(got.rgb.begin(), got.rgb.end(), composite.data.begin() + lo);
  }
  for (int v = 0; v < workers; ++v) wire.control(scp::FrameKind::kJobEnd);

  out.layer_seconds = spans.covered();
  out.correct = composite_matches(w, in, composite, out.unique_k);
  return out;
}

}  // namespace

ReplayResult replay_job(const Workload& w, const Input& in) {
  switch (w.kind) {
    case Kind::kHostFull:
      return replay_host(w, in);
    case Kind::kStreamDisk:
      return replay_stream(w, in);
    case Kind::kRemotePair:
      return replay_remote(w, in);
  }
  return {};
}

}  // namespace rifbench
