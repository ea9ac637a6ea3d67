// The traced run's instruments: spans recorded around each layer call,
// the shadow-Session replay that produces them, and the exports.
//
// Spans are taken from the benchmark's side of every layer boundary: the
// traced run sends a request over TCP as usual (one "wire" span), then
// repeats that request's public calls against a shadow pipeline::Session
// that has seen exactly the same requests, timing each call from outside.
// The server itself carries no instrumentation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gen.h"
#include "pipeline/session.h"
#include "serde/json.h"
#include "serve/service.h"

namespace swbench {

/// One timed interval.  `stem` names the per-layer metric the span's self
/// time feeds ("sim.simulate" -> sim.simulate_ms); `layer` is the module.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;   // 0: no parent
  std::uint32_t track = 0;    // 1: wire round trip, 2: shadow replay
  std::uint32_t request = 0;  // index into the traced request list
  const char* layer = "";
  const char* stem = "";
  double start_us = 0.0;
  double end_us = 0.0;
  double dur_us() const { return end_us - start_us; }
};

/// In-memory span store, written out once at exit.
class Tracer {
 public:
  Tracer() : t0_(std::chrono::steady_clock::now()) {}

  double now_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - t0_)
        .count();
  }
  /// Reserves an id, so a parent can be named before it is recorded.
  std::uint32_t next_id() { return ++last_id_; }
  void add(const Span& s) { spans_.push_back(s); }
  void reserve(std::size_t n) { spans_.reserve(n); }
  const std::vector<Span>& spans() const { return spans_; }

  /// Chrome/Perfetto trace-event JSON ("X" complete events, microsecond
  /// timestamps); `request_ids` maps Span::request to the wire id.
  std::string trace_event_json(const std::vector<std::string>& request_ids,
                               const swperf::serde::Json& metadata) const;

 private:
  std::chrono::steady_clock::time_point t0_;
  std::uint32_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// Counts read from the layers' public result types during replay.
struct ReplayCounters {
  std::uint64_t sims = 0;            // simulations actually run (memo misses)
  std::uint64_t events_popped = 0;   // SimCounters over those
  std::uint64_t pushes_avoided = 0;
  std::uint64_t tunes = 0;
  std::uint64_t tune_evaluations = 0;  // TuningStats
  std::uint64_t tune_cache_hits = 0;
  std::uint64_t tune_variants = 0;  // variants of the tuned spaces
  std::uint64_t tune_bound_pruned = 0;  // skipped by branch-and-bound
  std::uint64_t optimizes = 0;
  std::uint64_t steps_tried = 0;  // OptimizeResult provenance
  std::uint64_t steps_accepted = 0;
};

/// Shadow Sessions laid out like the server's shards: one per machine
/// configuration fingerprint.
class ShadowPool {
 public:
  swperf::pipeline::Session& get(const swperf::serve::Request& req);
  /// Memo entries held: lowerings + simulations + skeletons.
  std::size_t cached_entries() const;

 private:
  std::map<std::string, std::unique_ptr<swperf::pipeline::Session>> shards_;
};

/// Repeats `req`'s public calls on `shadow` — the same calls, in the same
/// order, that serve::execute_entry makes — recording one span per call
/// as a child of span `parent`.  Returns the reply those calls render.
std::string replay(const GenRequest& req, std::uint32_t request_index,
                   std::uint32_t parent, ShadowPool& shadow, Tracer& tracer,
                   ReplayCounters& counters);

/// The reply serve::execute_entry produces for `req` on `shadow`.
std::string execute_on(const GenRequest& req, ShadowPool& shadow);

/// `reply` re-rendered without the members that legitimately differ
/// between two executions of one request: the echoed "id" and every
/// "host_seconds" (wall-clock time of the host, not a result).
std::string comparable(const std::string& reply);

}  // namespace swbench
