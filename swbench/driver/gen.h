// Seeded, stratified request generator shared by the three workloads.
//
// The server only ever sees the JSONL lines produced here; everything the
// driver needs to check a reply (kernel, launch, bandwidth, stages) rides
// alongside each line.  A (workload, seed, round) triple always produces
// the same lines, so `swbench --print-requests` output piped into
// `swperf serve --stdio` replays any run exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serde/json.h"
#include "swacc/kernel.h"

namespace swbench {

enum class Workload { kEvalCold, kEvalHot, kCampaign };

bool parse_workload(std::string_view name, Workload* out);
const char* workload_name(Workload w);

/// Memory-bandwidth what-ifs every workload sweeps (GB/s per core group).
/// Each value selects its own Session shard on the server.
inline constexpr double kBandwidths[] = {16.0, 32.0, 64.0};

/// One generated request.
struct GenRequest {
  std::string id;
  std::string line;    // the request exactly as sent (no trailing newline)
  swperf::serde::Json body;  // the request minus its id
  std::string kind;    // "eval", "chip", "tune" or "optimize"
  std::string kernel;  // suite kernel name; empty for chip scenarios
  swperf::swacc::LaunchParams params;  // eval launch / optimize start
  double bw_gbps = 32.0;
  std::vector<std::string> stages;  // eval stages; {"tune"} / {"optimize"}
};

/// Requests per measured round, how many of round 0's requests the traced
/// run replays, and the seconds one round (set-up included) takes on a
/// 4-core host.  `tiny` shrinks the work for the smoke tests.
struct Sizing {
  std::size_t round = 0;
  std::size_t traced = 0;
  double nominal_s = 1.0;
};
Sizing sizing(Workload w, bool tiny);

class Generator {
 public:
  Generator(Workload w, std::uint64_t seed);

  /// Requests that warm a fresh server before a round is timed (eval_hot:
  /// every hot configuration once with the default stages; empty
  /// otherwise).
  std::vector<GenRequest> warmup() const;

  /// Round `index` of at most `size` requests, in send order.  Requests
  /// are distinct within a round; the per-kernel and per-tile-octave
  /// counts do not depend on the seed.
  std::vector<GenRequest> round(std::size_t index, std::size_t size) const;

 private:
  struct KernelSpace {
    std::string name;
    swperf::swacc::LaunchParams tuned;
    std::vector<swperf::swacc::LaunchParams> variants;  // standard space
    /// Variants grouped by log2(tile), ascending octave.
    std::vector<std::vector<swperf::swacc::LaunchParams>> octaves;
  };

  std::vector<GenRequest> cold_round(std::size_t index,
                                     std::size_t size) const;
  std::vector<GenRequest> hot_round(std::size_t index,
                                    std::size_t size) const;
  std::vector<GenRequest> campaign_round(std::size_t index,
                                         std::size_t size) const;

  Workload workload_;
  std::uint64_t seed_;
  std::vector<KernelSpace> kernels_;
};

}  // namespace swbench
