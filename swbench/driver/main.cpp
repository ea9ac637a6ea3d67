// swbench: the swperf benchmark.  Drives the real serve::Server in process
// over loopback TCP with four closed-loop clients, checks every reply, and
// prints the end-to-end metrics (--trace 0) or the traced per-layer
// breakdown (--trace 1).  See swbench/README.md for the workloads, the
// metric definitions and the sizing notes.
//
//   swbench --workload eval_cold|eval_hot|campaign --seed N --seconds S
//           --trace 0|1 [--trace-out FILE] [--revision REV] [--tiny]
//   swbench --workload W --seed N --print-requests [--rounds K] [--tiny]
//
// The last stdout line is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// The exit status is 0 only when every reply passed the correctness gate.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gen.h"
#include "kernels/suite.h"
#include "loadgen.h"
#include "serde/json.h"
#include "serde/serde.h"
#include "sim/machine.h"
#include "sw/pool.h"
#include "sw/rng.h"
#include "swacc/lower.h"
#include "trace.h"

namespace swbench {
namespace {

using Clock = std::chrono::steady_clock;
using swperf::serde::Json;

constexpr int kClients = 1;
/// Sampled replies re-simulated on the reference engine, per round.
constexpr std::size_t kReferenceChecksPerRound = 2;
/// Reconciliation tolerance.  The replayed layer calls of one traced
/// request repeat the work the server did for it, so their sum may exceed
/// the request's wire time only by noise: per request by at most
/// kReconcileRel x wire + kReconcileAbsMs (single repeats of the same work
/// differ by up to ~60% on a shared 4-vCPU VM: preemption, page faults),
/// summed over the run by at most kReconcileTotalRel x total wire time.
constexpr double kReconcileRel = 1.0;
constexpr double kReconcileAbsMs = 2.0;
constexpr double kReconcileTotalRel = 0.15;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : sum(v) / static_cast<double>(v.size());
}

struct Options {
  Workload workload = Workload::kEvalCold;
  bool have_workload = false;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "swbench-trace.json";
  std::string revision = "unknown";
  bool print_requests = false;
  std::size_t rounds = 1;
  bool tiny = false;
};

// ---- Correctness gate ------------------------------------------------------

/// Counts attempted requests and failures: error replies, refusals, drops,
/// wrong ids and correctness mismatches.
struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int reported = 0;

  void fail(const std::string& what) {
    ++failed;
    if (reported++ < 8) std::fprintf(stderr, "GATE: %s\n", what.c_str());
  }
};

/// A reply to re-derive on the reference simulator: the launch, and either
/// the full "actual" member (sim stage) or one simulated cycle count
/// (tune winner / optimizer result).
struct ReferenceCase {
  std::string what;
  swperf::swacc::KernelDesc desc;
  swperf::swacc::LaunchParams params;
  double bw_gbps = 32.0;
  std::string actual;  // comparable "actual" JSON; empty -> use cycles
  double cycles = 0.0;
};

Json without_counters(const Json& actual) {
  Json o = Json::object();
  for (const auto& [key, value] : actual.members()) {
    if (key != "counters") o.set(key, value);
  }
  return o;
}

/// Everything the untraced and traced phases learn from replies.
struct ReplyStats {
  double ape_sum = 0.0;  // Σ |predicted - simulated| / simulated
  std::uint64_t ape_n = 0;
  std::vector<ReferenceCase> reference;

  void pair(double predicted, double simulated) {
    if (simulated > 0.0) {
      ape_sum += std::abs(predicted - simulated) / simulated;
      ++ape_n;
    }
  }
};

/// Parses and checks one reply; returns true when it is ok.  `sample`
/// selects the reply for the reference-simulator check.
bool check_reply(const GenRequest& req, const Sample& s, bool sample,
                 Gate& gate, ReplyStats& stats) {
  ++gate.attempted;
  if (!s.answered) {
    gate.fail(req.id + ": no reply (connection lost)");
    return false;
  }
  const auto parsed = Json::parse(s.reply);
  if (!parsed.ok) {
    gate.fail(req.id + ": unparsable reply");
    return false;
  }
  const Json& r = parsed.value;
  const Json* id = r.find("id");
  if (id == nullptr || !id->is_string() || id->as_string() != req.id) {
    gate.fail(req.id + ": reply does not echo its id");
    return false;
  }
  const Json* ok = r.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    gate.fail(req.id + ": error reply " + s.reply.substr(0, 200));
    return false;
  }
  if (req.kind == "eval") {
    const Json* actual = r.find("actual");
    const Json* predicted = r.find("predicted");
    if (actual != nullptr && predicted != nullptr) {
      stats.pair(predicted->at("t_total").as_double(),
                 actual->at("total_cycles").as_double());
    }
    if (sample && actual != nullptr) {
      const auto spec = swperf::kernels::make(req.kernel,
                                              swperf::kernels::Scale::kSmall);
      stats.reference.push_back({req.id + " actual", spec.desc, req.params,
                                 req.bw_gbps,
                                 without_counters(*actual).dump(), 0.0});
    }
  } else if (req.kind == "tune") {
    const Json& tune = r.at("tune");
    const std::string best = tune.at("best").dump();
    const double measured = tune.at("best_measured_cycles").as_double();
    for (const Json& v : tune.at("explored").items()) {
      if (v.at("params").dump() == best) {
        stats.pair(v.at("predicted_cycles").as_double(), measured);
        break;
      }
    }
    if (sample) {
      const auto spec = swperf::kernels::make(req.kernel,
                                              swperf::kernels::Scale::kSmall);
      stats.reference.push_back(
          {req.id + " tune winner", spec.desc,
           swperf::serde::launch_params_from_json(tune.at("best")),
           req.bw_gbps, "", measured});
    }
  } else if (req.kind == "optimize") {
    const Json& opt = r.at("optimize");
    stats.pair(opt.at("initial_predicted").as_double(),
               opt.at("initial_measured").as_double());
    if (opt.at("accepted_steps").as_u64() > 0) {
      stats.pair(opt.at("final_predicted").as_double(),
                 opt.at("final_measured").as_double());
    }
    if (sample) {
      const Json& fk = opt.at("final_kernel");
      stats.reference.push_back(
          {req.id + " optimizer result",
           fk.is_object() ? swperf::serde::kernel_desc_from_json(fk)
                          : swperf::kernels::make(
                                req.kernel, swperf::kernels::Scale::kSmall)
                                .desc,
           swperf::serde::launch_params_from_json(opt.at("final_params")),
           req.bw_gbps, "", opt.at("final_measured").as_double()});
    }
  }
  return true;
}

/// Seeded one-in-eight sample of replies for the reference check.
bool sampled(std::uint64_t seed, std::size_t round, std::size_t i) {
  swperf::sw::SplitMix64 sm(seed * 0x100000001b3ULL + round * 7919 + i);
  return sm.next() % 8 == 0;
}

/// Re-simulates every sampled case on sim::simulate_reference (the
/// heap-based oracle engine) and compares bit for bit.
void reference_check(std::vector<ReferenceCase> cases, std::size_t limit,
                     Gate& gate) {
  if (cases.size() > limit) cases.resize(limit);
  std::vector<std::string> errors(cases.size());
  swperf::sw::parallel_for(cases.size(), kClients, [&](std::uint64_t i) {
    const ReferenceCase& c = cases[i];
    swperf::sw::ArchParams arch;
    arch.mem_bw_gbps = c.bw_gbps;
    try {
      const auto lk = swperf::swacc::lower(c.desc, c.params, arch);
      const auto ref = swperf::sim::simulate_reference(lk.sim_config,
                                                       lk.binary, lk.programs);
      if (!c.actual.empty()) {
        if (without_counters(swperf::serde::to_json(ref)).dump() !=
            c.actual) {
          errors[i] = c.what + ": differs from simulate_reference";
        }
      } else if (ref.total_cycles() != c.cycles) {
        errors[i] = c.what + ": cycles differ from simulate_reference";
      }
    } catch (const std::exception& e) {
      errors[i] = c.what + ": " + e.what();
    }
  });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    ++gate.attempted;
    if (!errors[i].empty()) gate.fail(errors[i]);
  }
}

// ---- Untraced (end-to-end) phase ------------------------------------------

/// A fresh server with its clients connected, round `index` generated and
/// (eval_hot) the hot set warmed: everything a round needs before timing.
struct Setup {
  std::unique_ptr<ServerHarness> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<GenRequest> requests;
};

Setup set_up(const Options& opt, std::size_t index, Gate& gate) {
  Setup s;
  s.server = std::make_unique<ServerHarness>();
  s.clients = connect_clients(s.server->port(), kClients);
  const Generator gen(opt.workload, opt.seed);
  s.requests = gen.round(index, sizing(opt.workload, opt.tiny).round);
  const auto warm = gen.warmup();
  const auto samples = run_closed_loop(s.clients, warm);
  ReplyStats ignored;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    check_reply(warm[i], samples[i], false, gate, ignored);
  }
  return s;
}

/// One measured round, run inside a forked child: set up, drive the round
/// closed-loop, drain, check every reply.  Returns the round's record.
Json run_round(const Options& opt, std::size_t index) {
  Gate gate;
  const auto r0 = Clock::now();
  Setup s = set_up(opt, index, gate);
  const double setup_s = seconds_since(r0);

  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  const auto samples = run_closed_loop(s.clients, s.requests);
  const double busy_s = seconds_since(t0);
  const double cpu_s = cpu_seconds() - cpu0;
  const double rss_mb = peak_rss_mb();

  const ServerStats st = probe_stats(*s.clients.front());
  s.clients.clear();
  ++gate.attempted;
  if (!s.server->stop()) gate.fail("server drain returned nonzero");

  ReplyStats replies;
  std::uint64_t ok = 0;
  std::vector<double> latency;
  Json latency_json = Json::array();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    if (check_reply(s.requests[i], samples[i], sampled(opt.seed, index, i),
                    gate, replies)) {
      ++ok;
    }
    if (samples[i].answered) {
      latency.push_back(samples[i].latency_ms);
      latency_json.push_back(samples[i].latency_ms);
    }
  }
  const std::size_t references =
      std::min(replies.reference.size(), kReferenceChecksPerRound);
  reference_check(replies.reference, kReferenceChecksPerRound, gate);
  const double cpu_ms =
      1000.0 * cpu_s / static_cast<double>(s.requests.size());
  std::printf("round %zu: %zu requests, %llu ok in %.3f s, %.1f rps, "
              "p50 %.3f ms, %.3f cpu ms/req, peak rss %.1f MB, "
              "set-up %.3f s\n",
              index, s.requests.size(), static_cast<unsigned long long>(ok),
              busy_s, static_cast<double>(ok) / busy_s,
              percentile(latency, 0.50), cpu_ms, rss_mb, setup_s);

  Json r = Json::object();
  r.set("setup_s", setup_s);
  r.set("busy_s", busy_s);
  r.set("cpu_s", cpu_s);
  r.set("rss_mb", rss_mb);
  r.set("requests", static_cast<std::uint64_t>(s.requests.size()));
  r.set("ok", ok);
  r.set("served", st.served);
  r.set("batches", st.batches);
  r.set("ape_sum", replies.ape_sum);
  r.set("ape_n", replies.ape_n);
  r.set("references", static_cast<std::uint64_t>(references));
  r.set("attempted", gate.attempted);
  r.set("failed", gate.failed);
  r.set("latency_ms", std::move(latency_json));
  return r;
}

/// Runs round `index` in a forked child — a fresh process, as a freshly
/// started `swperf serve` is, so no round inherits another's heap — and
/// returns the record it sends back (null when the child failed).  The
/// caller must not have started any thread yet.
Json fork_round(const Options& opt, std::size_t index, Gate& gate) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork() failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 0;
    try {
      const std::string line = run_round(opt, index).dump();
      std::size_t off = 0;
      while (off < line.size()) {
        const ssize_t n = ::write(fds[1], line.data() + off, line.size() - off);
        if (n <= 0) break;
        off += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "round %zu: %s\n", index, e.what());
      code = 1;
    }
    std::fflush(stdout);
    std::fflush(stderr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string record;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    record.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const auto parsed = Json::parse(record);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !parsed.ok) {
    ++gate.attempted;
    gate.fail("round " + std::to_string(index) + ": measuring process failed");
    return Json();
  }
  gate.attempted += parsed.value.at("attempted").as_u64();
  gate.failed += parsed.value.at("failed").as_u64();
  return parsed.value;
}

/// What the rounds of one run add up to.  Rounds differ in cost (each
/// draws other tile octaves), but a run always measures the same rounds,
/// so sums over them compare across runs.
struct Untraced {
  std::vector<double> latency_ms;  // every answered request, pooled
  std::vector<double> rss_mb;      // peak resident set of each round
  std::vector<double> setup_s;     // set-up time of each round
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t served = 0;
  std::uint64_t batches = 0;
  std::uint64_t references = 0;
  double busy_s = 0.0;
  double cpu_s = 0.0;
  double ape_sum = 0.0;
  std::uint64_t ape_n = 0;
};

/// A run measures a fixed, even number of rounds (campaign rounds come in
/// complementary pairs), sized so that it takes about `seconds` on a
/// 4-core host: every run with the same --seconds does the same work,
/// whatever the speed of the host or of the code under test.
std::size_t rounds_for(const Options& opt, double seconds) {
  const double per_round = sizing(opt.workload, opt.tiny).nominal_s;
  const auto n = static_cast<std::size_t>(std::lround(seconds / per_round));
  return std::max<std::size_t>(4, n + n % 2);
}

Untraced run_untraced(const Options& opt, double seconds, Gate& gate) {
  Untraced u;
  const std::size_t rounds = rounds_for(opt, seconds);
  for (std::size_t index = 0; index < rounds; ++index) {
    const Json r = fork_round(opt, index, gate);
    if (r.is_null()) continue;
    for (const Json& v : r.at("latency_ms").items()) {
      u.latency_ms.push_back(v.as_double());
    }
    u.rss_mb.push_back(r.at("rss_mb").as_double());
    u.setup_s.push_back(r.at("setup_s").as_double());
    u.requests += r.at("requests").as_u64();
    u.ok += r.at("ok").as_u64();
    u.served += r.at("served").as_u64();
    u.batches += r.at("batches").as_u64();
    u.references += r.at("references").as_u64();
    u.busy_s += r.at("busy_s").as_double();
    u.cpu_s += r.at("cpu_s").as_double();
    u.ape_sum += r.at("ape_sum").as_double();
    u.ape_n += r.at("ape_n").as_u64();
  }
  return u;
}

// ---- Traced (per-layer) phase ----------------------------------------------

struct Traced {
  std::vector<std::string> ids;
  std::vector<double> wire_ms;   // per request, client send to reply
  std::vector<double> layer_ms;  // per request, Σ replayed layer spans
  std::map<std::string, double> self_ms;    // by stem, summed
  std::map<std::string, std::uint64_t> calls;  // by stem
  ReplayCounters counters;
  ServerStats server;
  std::size_t cached_entries = 0;
  std::size_t reconciled = 0;
  double worst_excess_ms = 0.0;
  double phase_s = 0.0;
  double span_cost_us = 0.0;
  std::size_t spans = 0;
};

/// Cost of recording one span, measured on a scratch tracer.
double span_cost_us() {
  Tracer scratch;
  constexpr int kN = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kN; ++i) {
    Span s;
    s.id = scratch.next_id();
    s.start_us = scratch.now_us();
    s.end_us = scratch.now_us();
    scratch.add(s);
  }
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
             .count() /
         kN;
}

Traced run_traced(const Options& opt, Tracer& tracer, Gate& gate) {
  Traced tr;
  tr.span_cost_us = span_cost_us();
  const auto start = Clock::now();
  ServerHarness server;
  Client client(server.port());
  ShadowPool timed;  // replayed with spans
  ShadowPool exec;   // runs serve::execute_entry for the byte comparison
  const Generator gen(opt.workload, opt.seed);
  ReplyStats ignored;
  for (const GenRequest& w : gen.warmup()) {
    Sample s;
    s.answered = client.roundtrip(w.line, &s.reply);
    check_reply(w, s, false, gate, ignored);
    execute_on(w, timed);
    execute_on(w, exec);
  }
  const Sizing size = sizing(opt.workload, opt.tiny);
  auto requests = gen.round(0, size.round);
  if (requests.size() > size.traced) requests.resize(size.traced);
  // Recording must not reallocate mid-request: ~40 spans per request at
  // most (a default-stage eval records about 15).
  tracer.reserve(requests.size() * 40);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    const GenRequest& req = requests[i];
    const auto index = static_cast<std::uint32_t>(i);
    tr.ids.push_back(req.id);
    Sample s;
    Span wire;
    wire.id = tracer.next_id();
    wire.track = 1;
    wire.request = index;
    wire.layer = "serve";
    wire.stem = "serve.request";
    wire.start_us = tracer.now_us();
    s.answered = client.roundtrip(req.line, &s.reply);
    wire.end_us = tracer.now_us();
    tracer.add(wire);
    s.latency_ms = wire.dur_us() / 1000.0;
    check_reply(req, s, false, gate, ignored);

    Span root;
    root.id = tracer.next_id();
    root.track = 2;
    root.request = index;
    root.layer = "serve";
    root.stem = "serve.replay";
    const std::size_t first_child = tracer.spans().size();
    root.start_us = tracer.now_us();
    std::string rendered;
    try {
      rendered = replay(req, index, root.id, timed, tracer, tr.counters);
    } catch (const std::exception& e) {
      gate.fail(req.id + ": replay threw: " + e.what());
    }
    root.end_us = tracer.now_us();
    // Layer spans are siblings under the root, in call order: each must
    // lie inside the root and after its predecessor.
    double layer_us = 0.0;
    double cursor = root.start_us;
    bool nested = true;
    for (std::size_t k = first_child; k < tracer.spans().size(); ++k) {
      const Span& c = tracer.spans()[k];
      nested = nested && c.parent == root.id && c.start_us >= cursor &&
               c.end_us <= root.end_us;
      cursor = c.end_us;
      layer_us += c.dur_us();
      tr.self_ms[c.stem] += c.dur_us() / 1000.0;
      ++tr.calls[c.stem];
    }
    tracer.add(root);
    tr.wire_ms.push_back(wire.dur_us() / 1000.0);
    tr.layer_ms.push_back(layer_us / 1000.0);

    ++gate.attempted;
    const std::string expected = comparable(execute_on(req, exec));
    const std::string got = comparable(s.reply);
    if (got != expected) {
      gate.fail(req.id + ": server reply differs from execute_entry");
    } else if (comparable(rendered) != expected) {
      gate.fail(req.id + ": replayed calls render a different reply");
    }
    const double excess = layer_us / 1000.0 - tr.wire_ms.back();
    const double allowed =
        tr.wire_ms.back() * kReconcileRel + kReconcileAbsMs;
    ++gate.attempted;
    if (nested && excess <= allowed) {
      ++tr.reconciled;
    } else {
      gate.fail(req.id + ": layer spans do not reconcile with wire time");
    }
    tr.worst_excess_ms = std::max(tr.worst_excess_ms, excess);
  }
  ++gate.attempted;
  if (sum(tr.layer_ms) > sum(tr.wire_ms) * (1.0 + kReconcileTotalRel)) {
    gate.fail("summed layer spans exceed summed wire time");
  }
  tr.server = probe_stats(client);
  tr.cached_entries = timed.cached_entries();
  tr.phase_s = seconds_since(start);
  tr.spans = tracer.spans().size();
  return tr;
}

// ---- Output ----------------------------------------------------------------

Json metric(double value, const char* unit) {
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  return m;
}

Json metadata(const Options& opt) {
  Json m = Json::object();
  m.set("benchmark", "swbench");
  m.set("workload", workload_name(opt.workload));
  m.set("seed", opt.seed);
  m.set("seconds", opt.seconds);
  m.set("trace", opt.trace);
  m.set("clients", kClients);
  m.set("round_requests",
        static_cast<std::uint64_t>(sizing(opt.workload, opt.tiny).round));
  m.set("nproc", std::thread::hardware_concurrency());
  m.set("compiler", SWBENCH_COMPILER);
  m.set("build_type", SWBENCH_BUILD_TYPE);
  m.set("revision", opt.revision);
  return m;
}

void print_layer_table(const Traced& tr) {
  const double n = static_cast<double>(std::max<std::size_t>(
      tr.wire_ms.size(), 1));
  const double wire = mean(tr.wire_ms);
  std::printf("\nper-layer self time, %zu traced requests (mean wire %.3f "
              "ms/request)\n",
              tr.wire_ms.size(), wire);
  std::printf("  %-22s %8s %12s %12s %7s\n", "layer span", "calls",
              "total ms", "ms/request", "share");
  double layers = 0.0;
  for (const auto& [stem, ms] : tr.self_ms) {
    layers += ms / n;
    std::printf("  %-22s %8llu %12.3f %12.4f %6.1f%%\n", stem.c_str(),
                static_cast<unsigned long long>(tr.calls.at(stem)), ms,
                ms / n, wire > 0.0 ? 100.0 * ms / n / wire : 0.0);
  }
  const double self = wire - layers;
  std::printf("  %-22s %8s %12.3f %12.4f %6.1f%%\n", "serve.self", "-",
              self * n, self, wire > 0.0 ? 100.0 * self / wire : 0.0);
  std::printf("  %-22s %8s %12.3f %12.4f %6.1f%%\n", "= wire", "-",
              wire * n, wire, 100.0);
  std::printf(
      "reconciliation: %zu/%zu requests with replayed layer time <= wire "
      "time x %.2f + %.1f ms (worst excess %.3f ms); summed layer time "
      "%.1f%% of summed wire time (limit %.0f%%)\n",
      tr.reconciled, tr.wire_ms.size(), 1.0 + kReconcileRel,
      kReconcileAbsMs, tr.worst_excess_ms,
      100.0 * sum(tr.layer_ms) / std::max(sum(tr.wire_ms), 1e-9),
      100.0 * (1.0 + kReconcileTotalRel));
  const double wire_total_s = wire * n / 1000.0;
  std::printf(
      "tracing overhead: %.3f us per span x %zu spans = %.2f%% of wire "
      "time; traced phase %.2f s for %.2f s of wire time\n",
      tr.span_cost_us, tr.spans,
      wire_total_s > 0.0 ? 100.0 * tr.span_cost_us *
                               static_cast<double>(tr.spans) * 1e-6 /
                               wire_total_s
                         : 0.0,
      tr.phase_s, wire_total_s);
}

int run(const Options& opt) {
  const Json meta = metadata(opt);
  std::printf("# swbench %s\n", meta.dump().c_str());
  Gate gate;
  Json metrics = Json::object();

  if (!opt.trace) {
    const Untraced u = run_untraced(opt, opt.seconds, gate);
    const double mape =
        u.ape_n > 0 ? 100.0 * u.ape_sum / static_cast<double>(u.ape_n) : 0.0;
    std::printf("%zu rounds, %llu requests (%llu ok) in %.2f s busy; "
                "%llu model/sim pairs; %llu reference checks\n",
                u.rss_mb.size(),
                static_cast<unsigned long long>(u.requests),
                static_cast<unsigned long long>(u.ok), u.busy_s,
                static_cast<unsigned long long>(u.ape_n),
                static_cast<unsigned long long>(u.references));
    metrics.set("throughput_rps",
                metric(static_cast<double>(u.ok) / std::max(u.busy_s, 1e-9),
                       "1/s"));
    metrics.set("latency_p50_ms",
                metric(percentile(u.latency_ms, 0.50), "ms"));
    metrics.set("latency_p90_ms",
                metric(percentile(u.latency_ms, 0.90), "ms"));
    metrics.set("cpu_ms_per_req",
                metric(1000.0 * u.cpu_s /
                           static_cast<double>(
                               std::max<std::uint64_t>(u.requests, 1)),
                       "ms"));
    metrics.set("rss_peak_mb", metric(mean(u.rss_mb), "MB"));
    metrics.set("model_mape_pct", metric(mape, "%"));
    metrics.set("setup_s", metric(median(u.setup_s), "s"));
  } else {
    // Untraced first (for serve.wait_ms and batching), then the traced
    // serial replay of round 0.
    const Untraced u = run_untraced(opt, opt.seconds / 2.0, gate);
    Tracer tracer;
    const Traced tr = run_traced(opt, tracer, gate);
    print_layer_table(tr);

    const double n = static_cast<double>(std::max<std::size_t>(
        tr.wire_ms.size(), 1));
    const auto per_request = [&](const char* stem) {
      const auto it = tr.self_ms.find(stem);
      return it == tr.self_ms.end() ? 0.0 : it->second / n;
    };
    const auto ratio = [](double a, double b) {
      return b > 0.0 ? a / b : 0.0;
    };
    const ReplayCounters& c = tr.counters;
    const double sim_ms = per_request("sim.simulate") * n;
    double layers = 0.0;
    for (const auto& [stem, ms] : tr.self_ms) layers += ms / n;

    metrics.set("analysis.check_ms", metric(per_request("analysis.check"),
                                            "ms"));
    metrics.set("sim.simulate_ms", metric(per_request("sim.simulate"), "ms"));
    metrics.set("sim.events_popped",
                metric(ratio(static_cast<double>(c.events_popped),
                             static_cast<double>(c.sims)),
                       "count"));
    metrics.set("sim.mevents_per_s",
                metric(ratio(static_cast<double>(c.events_popped),
                             sim_ms * 1000.0),
                       "1/us"));
    metrics.set("sim.pushes_avoided_frac",
                metric(ratio(static_cast<double>(c.pushes_avoided),
                             static_cast<double>(c.pushes_avoided +
                                                 c.events_popped)),
                       "ratio"));
    metrics.set("pipeline.lower_ms",
                metric(per_request("pipeline.lower"), "ms"));
    metrics.set("pipeline.skeleton_reuses",
                metric(static_cast<double>(tr.server.skeleton_reuses),
                       "count"));
    metrics.set("pipeline.lookup_ms",
                metric(per_request("pipeline.lookup"), "ms"));
    metrics.set("pipeline.hit_rate",
                metric(ratio(static_cast<double>(tr.server.hits),
                             static_cast<double>(tr.server.hits +
                                                 tr.server.misses)),
                       "ratio"));
    metrics.set("pipeline.cached_entries",
                metric(static_cast<double>(tr.cached_entries), "count"));
    metrics.set("serde.parse_ms", metric(per_request("serde.parse"), "ms"));
    metrics.set("serde.render_ms", metric(per_request("serde.render"), "ms"));
    metrics.set("serve.self_ms", metric(mean(tr.wire_ms) - layers, "ms"));
    metrics.set("serve.mean_batch",
                metric(ratio(static_cast<double>(u.served),
                             static_cast<double>(u.batches)),
                       "count"));
    metrics.set("serve.wait_ms",
                metric(mean(u.latency_ms) - mean(tr.wire_ms), "ms"));
    metrics.set("explain.explain_ms",
                metric(per_request("explain.explain"), "ms"));
    metrics.set("sim.chip_ms", metric(per_request("sim.chip"), "ms"));
    metrics.set("model.predict_ms", metric(per_request("model.predict"),
                                           "ms"));
    metrics.set("tuning.tune_ms", metric(per_request("tuning.tune"), "ms"));
    metrics.set("tuning.evaluations",
                metric(ratio(static_cast<double>(c.tune_evaluations),
                             static_cast<double>(c.tunes)),
                       "count"));
    metrics.set("tuning.pruned_frac",
                metric(ratio(static_cast<double>(c.tune_bound_pruned),
                             static_cast<double>(c.tune_variants)),
                       "ratio"));
    metrics.set("tuning.cache_hit_rate",
                metric(ratio(static_cast<double>(c.tune_cache_hits),
                             static_cast<double>(c.tune_evaluations)),
                       "ratio"));
    metrics.set("transform.optimize_ms",
                metric(per_request("transform.optimize"), "ms"));
    metrics.set("transform.accept_frac",
                metric(ratio(static_cast<double>(c.steps_accepted),
                             static_cast<double>(c.steps_tried)),
                       "ratio"));

    std::ofstream out(opt.trace_out);
    out << tracer.trace_event_json(tr.ids, meta) << '\n';
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
      ++gate.failed;
    } else {
      std::printf("trace: %zu spans written to %s\n", tr.spans,
                  opt.trace_out.c_str());
    }
  }

  const bool correct = gate.failed == 0;
  std::printf("failed_frac %.6f (%llu of %llu)\n",
              static_cast<double>(gate.failed) /
                  static_cast<double>(std::max<std::uint64_t>(gate.attempted,
                                                              1)),
              static_cast<unsigned long long>(gate.failed),
              static_cast<unsigned long long>(gate.attempted));
  for (const auto& [name, m] : metrics.members()) {
    std::printf("  %-26s %14.6g %s\n", name.c_str(),
                m.at("value").as_double(), m.at("unit").as_string().c_str());
  }
  Json result = Json::object();
  result.set("correct", correct);
  result.set("attempted", gate.attempted);
  result.set("failed", gate.failed);
  result.set("metrics", std::move(metrics));
  std::printf("%s\n", result.dump().c_str());
  return correct ? 0 : 1;
}

int print_requests(const Options& opt) {
  const Generator gen(opt.workload, opt.seed);
  for (const GenRequest& r : gen.warmup()) std::printf("%s\n", r.line.c_str());
  for (std::size_t i = 0; i < opt.rounds; ++i) {
    for (const GenRequest& r :
         gen.round(i, sizing(opt.workload, opt.tiny).round)) {
      std::printf("%s\n", r.line.c_str());
    }
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: swbench --workload eval_cold|eval_hot|campaign "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] "
               "[--revision REV] [--tiny] [--print-requests [--rounds K]]\n");
  return 2;
}

}  // namespace
}  // namespace swbench

int main(int argc, char** argv) {
  using namespace swbench;
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      const bool has_value = i + 1 < argc;
      if (a == "--workload" && has_value) {
        opt.have_workload = parse_workload(argv[++i], &opt.workload);
        if (!opt.have_workload) return usage();
      } else if (a == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (a == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (a == "--trace" && has_value) {
        opt.trace = std::string(argv[++i]) != "0";
      } else if (a == "--trace-out" && has_value) {
        opt.trace_out = argv[++i];
      } else if (a == "--revision" && has_value) {
        opt.revision = argv[++i];
      } else if (a == "--rounds" && has_value) {
        opt.rounds = std::stoul(argv[++i]);
      } else if (a == "--print-requests") {
        opt.print_requests = true;
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else {
        return usage();
      }
    }
    if (!opt.have_workload || opt.seconds <= 0.0) return usage();
    return opt.print_requests ? print_requests(opt) : run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "swbench: %s\n", e.what());
    return 1;
  }
}
