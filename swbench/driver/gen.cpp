#include "gen.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "kernels/suite.h"
#include "serde/json.h"
#include "serde/serde.h"
#include "sw/rng.h"
#include "tuning/space.h"

namespace swbench {

using swperf::serde::Json;
namespace kernels = swperf::kernels;
namespace swacc = swperf::swacc;

namespace {

/// Stateless seeded hash of a tuple: the generator never carries RNG state
/// between draws, so any round can be produced on its own.
std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                  std::uint64_t c = 0, std::uint64_t d = 0) {
  swperf::sw::SplitMix64 sm(seed);
  std::uint64_t h = sm.next();
  for (const std::uint64_t v : {a, b, c, d}) {
    swperf::sw::SplitMix64 step(h ^ (v * 0x9e3779b97f4a7c15ULL));
    h = step.next();
  }
  return h;
}

template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t key) {
  swperf::sw::Rng rng(key);
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

Json arch_json(double bw) {
  Json a = Json::object();
  a.set("mem_bw_gbps", bw);
  return a;
}

Json string_array(const std::vector<std::string>& items) {
  Json a = Json::array();
  for (const auto& s : items) a.push_back(s);
  return a;
}

GenRequest eval_request(const std::string& kernel,
                        const swacc::LaunchParams& params, double bw,
                        std::vector<std::string> stages) {
  GenRequest r;
  r.kind = stages.size() == 1 && (stages[0] == "tune" ||
                                   stages[0] == "optimize")
               ? stages[0]
               : "eval";
  r.kernel = kernel;
  r.params = params;
  r.bw_gbps = bw;
  r.stages = std::move(stages);
  r.body = Json::object();
  r.body.set("kernel", kernel);
  r.body.set("scale", "small");
  if (r.kind != "tune") r.body.set("params", swperf::serde::to_json(params));
  r.body.set("stages", string_array(r.stages));
  r.body.set("arch", arch_json(bw));
  return r;
}

/// Numbers the requests in send order and renders their lines, the id
/// first so a reader of the JSONL sees it at the start of each line.
std::vector<GenRequest> finalize(std::vector<GenRequest> out,
                                 const std::string& prefix) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    GenRequest& r = out[i];
    r.id = prefix + std::to_string(i);
    Json j = Json::object();
    j.set("id", r.id);
    for (const auto& [key, value] : r.body.members()) j.set(key, value);
    r.line = j.dump();
  }
  return out;
}

bool same_launch(const swacc::LaunchParams& a, const swacc::LaunchParams& b) {
  return swperf::serde::to_json(a).dump() == swperf::serde::to_json(b).dump();
}

}  // namespace

bool parse_workload(std::string_view name, Workload* out) {
  if (name == "eval_cold") {
    *out = Workload::kEvalCold;
  } else if (name == "eval_hot") {
    *out = Workload::kEvalHot;
  } else if (name == "campaign") {
    *out = Workload::kCampaign;
  } else {
    return false;
  }
  return true;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kEvalCold:
      return "eval_cold";
    case Workload::kEvalHot:
      return "eval_hot";
    case Workload::kCampaign:
      return "campaign";
  }
  return "?";
}

Sizing sizing(Workload w, bool tiny) {
  switch (w) {
    case Workload::kEvalCold:
      return tiny ? Sizing{36, 12, 0.5} : Sizing{127, 64, 2.3};
    case Workload::kEvalHot:
      return tiny ? Sizing{68, 34, 0.3} : Sizing{1360, 680, 1.8};
    case Workload::kCampaign:
      return tiny ? Sizing{6, 4, 0.5} : Sizing{51, 26, 2.6};
  }
  return {};
}

Generator::Generator(Workload w, std::uint64_t seed)
    : workload_(w), seed_(seed) {
  const swperf::sw::ArchParams arch;
  for (const auto& name : kernels::suite_names()) {
    const auto spec = kernels::make(name, kernels::Scale::kSmall);
    KernelSpace ks;
    ks.name = name;
    ks.tuned = spec.tuned;
    ks.variants = swperf::tuning::SearchSpace::standard(spec.desc, arch)
                      .enumerate(spec.desc, arch);
    for (const auto& p : ks.variants) {
      const auto octave = static_cast<std::size_t>(std::log2(p.tile));
      if (ks.octaves.size() <= octave) ks.octaves.resize(octave + 1);
      ks.octaves[octave].push_back(p);
    }
    std::erase_if(ks.octaves, [](const auto& o) { return o.empty(); });
    kernels_.push_back(std::move(ks));
  }
}

std::vector<GenRequest> Generator::warmup() const {
  std::vector<GenRequest> out;
  if (workload_ != Workload::kEvalHot) return out;
  for (const auto& k : kernels_) {
    for (const double bw : kBandwidths) {
      out.push_back(
          eval_request(k.name, k.tuned, bw, {"check", "sim", "model"}));
    }
  }
  return finalize(std::move(out), "w-");
}

std::vector<GenRequest> Generator::round(std::size_t index,
                                         std::size_t size) const {
  switch (workload_) {
    case Workload::kEvalCold:
      return cold_round(index, size);
    case Workload::kEvalHot:
      return hot_round(index, size);
    case Workload::kCampaign:
      return campaign_round(index, size);
  }
  return {};
}

// eval_cold: m draws per kernel per round, spread evenly over the kernel's
// tile octaves and rotated by the round index (so every round costs about
// the same, and octave counts do not depend on the seed).  Each octave
// walks one seeded permutation of its (variant, bandwidth) pairs across
// the rounds, so a run covers each octave evenly and no configuration
// repeats within a round — each round runs on a fresh server, which keeps
// every request a memo miss.  One request in 16 is a chip scenario of 2-6
// small jobs at their tuned presets (job counts cycle, kernels dealt from
// a seeded permutation); one in 16 also asks for explain, the kernels
// taking turns.
std::vector<GenRequest> Generator::cold_round(std::size_t index,
                                              std::size_t size) const {
  const std::size_t nk = kernels_.size();
  const std::size_t nbw = std::size(kBandwidths);
  const auto m = static_cast<std::size_t>(std::max<long>(
      1, std::lround(static_cast<double>(size) * 15.0 / 16.0 /
                     static_cast<double>(nk))));
  const std::size_t evals = m * nk;
  const std::size_t chips = (evals + 14) / 15;
  const std::size_t explains = (evals + chips + 15) / 16;

  std::vector<GenRequest> out;
  for (std::size_t k = 0; k < nk; ++k) {
    const KernelSpace& ks = kernels_[k];
    const std::size_t no = ks.octaves.size();
    const auto octave = [&](std::size_t round, std::size_t i) {
      return (i * no / m + round) % no;
    };
    // Draws of each octave before this round: where its walk resumes.
    std::vector<std::size_t> taken(no, 0);
    for (std::size_t r = 0; r < index; ++r) {
      for (std::size_t i = 0; i < m; ++i) ++taken[octave(r, i)];
    }
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t oct = octave(index, i);
      const auto& bucket = ks.octaves[oct];
      std::vector<std::size_t> perm(bucket.size() * nbw);
      for (std::size_t p = 0; p < perm.size(); ++p) perm[p] = p;
      shuffle(perm, mix(seed_, 1, k, oct));
      const std::size_t pick = perm[taken[oct]++ % perm.size()];
      out.push_back(eval_request(ks.name, bucket[pick / nbw],
                                 kBandwidths[pick % nbw],
                                 {"check", "sim", "model"}));
    }
  }
  for (std::size_t j = 0; j < explains; ++j) {
    const std::size_t k = (index * explains + j) % nk;
    GenRequest& r = out[k * m + (j / nk) % m];
    r = eval_request(r.kernel, r.params, r.bw_gbps,
                     {"check", "sim", "model", "explain"});
  }
  std::vector<std::size_t> deal(nk);
  for (std::size_t k = 0; k < nk; ++k) deal[k] = k;
  shuffle(deal, mix(seed_, 3, index));
  std::size_t dealt = 0;
  for (std::size_t c = 0; c < chips; ++c) {
    GenRequest r;
    r.kind = "chip";
    r.bw_gbps = kBandwidths[(index + c) % nbw];
    Json jobs = Json::array();
    const std::size_t njobs = 2 + (index + c) % 5;
    for (std::size_t n = 0; n < njobs; ++n) {
      Json job = Json::object();
      job.set("kernel", kernels_[deal[dealt++ % nk]].name);
      job.set("name", "j" + std::to_string(n));
      job.set("scale", "small");
      jobs.push_back(std::move(job));
    }
    Json chip = Json::object();
    chip.set("jobs", std::move(jobs));
    r.body = Json::object();
    r.body.set("chip", std::move(chip));
    r.body.set("arch", arch_json(r.bw_gbps));
    out.push_back(std::move(r));
  }
  shuffle(out, mix(seed_, 4, index));
  return finalize(std::move(out), "c" + std::to_string(index) + "-");
}

// eval_hot: every kernel's tuned small launch, equal counts per kernel and
// per stage set; the bandwidth cycles from a seeded offset.
std::vector<GenRequest> Generator::hot_round(std::size_t index,
                                             std::size_t size) const {
  static const std::vector<std::vector<std::string>> kStageSets = {
      {"check", "sim", "model"}, {"sim", "model"}, {"sim"}, {"model"}};
  const std::size_t per = kernels_.size() * kStageSets.size();
  const auto m = static_cast<std::size_t>(std::max<long>(
      1, std::lround(static_cast<double>(size) / static_cast<double>(per))));
  std::vector<GenRequest> out;
  for (std::size_t k = 0; k < kernels_.size(); ++k) {
    for (std::size_t s = 0; s < kStageSets.size(); ++s) {
      const std::uint64_t offset = mix(seed_, 5, index, k, s);
      for (std::size_t j = 0; j < m; ++j) {
        const double bw =
            kBandwidths[(offset + j) % std::size(kBandwidths)];
        out.push_back(eval_request(kernels_[k].name, kernels_[k].tuned,
                                   bw, kStageSets[s]));
      }
    }
  }
  shuffle(out, mix(seed_, 6, index));
  return finalize(std::move(out), "h" + std::to_string(index) + "-");
}

// campaign: every (kernel, bandwidth) pair once per round, 26 cold `tune`
// and 25 `optimize` requests or the reverse.  A seeded 9 of the 17
// kernels get two tunes and one optimization, the others the reverse, with
// the bandwidth of each kind rotated by a seeded offset; rounds 2r and
// 2r+1 are complements, so a pair of rounds tunes and optimizes every
// (kernel, bandwidth) once.  The optimizer starts from a standard-space
// launch other than the tuned preset, its tile octave cycling with the
// round and its variant seeded.
std::vector<GenRequest> Generator::campaign_round(std::size_t index,
                                                  std::size_t size) const {
  const std::size_t nk = kernels_.size();
  const std::size_t nbw = std::size(kBandwidths);
  const std::size_t pair = index / 2;
  const bool flip = index % 2 == 1;
  std::vector<std::size_t> rank(nk);
  for (std::size_t k = 0; k < nk; ++k) rank[k] = k;
  shuffle(rank, mix(seed_, 7, pair));
  std::vector<GenRequest> out;
  for (std::size_t k = 0; k < nk; ++k) {
    const KernelSpace& ks = kernels_[k];
    const bool two_tunes = rank[k] < (nk + 1) / 2;
    const std::uint64_t offset = mix(seed_, 8, pair, k);
    for (std::size_t b = 0; b < nbw; ++b) {
      const double bw = kBandwidths[b];
      const bool middle = (b + offset) % nbw == 1;
      if ((two_tunes != middle) != flip) {
        out.push_back(eval_request(ks.name, ks.tuned, bw, {"tune"}));
        continue;
      }
      const auto& bucket = ks.octaves[(k + b + index) % ks.octaves.size()];
      std::size_t pick = mix(seed_, 9, index, k, b) % bucket.size();
      if (same_launch(bucket[pick], ks.tuned)) {
        pick = (pick + 1) % bucket.size();
      }
      out.push_back(eval_request(ks.name, bucket[pick], bw, {"optimize"}));
    }
  }
  shuffle(out, mix(seed_, 10, index));
  if (out.size() > size) out.resize(size);
  return finalize(std::move(out), "t" + std::to_string(index) + "-");
}

}  // namespace swbench
