#include "trace.h"

#include <utility>

#include "explain/explain.h"
#include "kernels/suite.h"
#include "pipeline/chip.h"
#include "serde/serde.h"
#include "sim/chip.h"
#include "transform/optimizer.h"
#include "transform/provenance.h"
#include "tuning/space.h"

namespace swbench {

using swperf::serde::Json;
namespace pipeline = swperf::pipeline;
namespace serde = swperf::serde;

std::string Tracer::trace_event_json(
    const std::vector<std::string>& request_ids, const Json& metadata) const {
  Json events = Json::array();
  for (const Span& s : spans_) {
    Json e = Json::object();
    e.set("name", s.stem);
    e.set("cat", s.layer);
    e.set("ph", "X");
    e.set("ts", s.start_us);
    e.set("dur", s.dur_us());
    e.set("pid", 1);
    e.set("tid", s.track);
    Json args = Json::object();
    args.set("request", s.request < request_ids.size()
                            ? Json(request_ids[s.request])
                            : Json());
    args.set("span", s.id);
    args.set("parent", s.parent == 0 ? Json() : Json(s.parent));
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  for (const auto& [tid, name] :
       {std::pair{1, "wire (client send to reply)"},
        std::pair{2, "shadow replay (layer calls)"}}) {
    Json e = Json::object();
    e.set("name", "thread_name");
    e.set("ph", "M");
    e.set("pid", 1);
    e.set("tid", tid);
    Json args = Json::object();
    args.set("name", name);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  doc.set("otherData", metadata);
  return doc.dump();
}

pipeline::Session& ShadowPool::get(const swperf::serve::Request& req) {
  auto& slot = shards_[req.arch_key];
  if (!slot) slot = std::make_unique<pipeline::Session>(req.arch);
  return *slot;
}

std::size_t ShadowPool::cached_entries() const {
  std::size_t n = 0;
  for (const auto& [key, s] : shards_) {
    (void)key;
    n += s->lowered_cached() + s->simulated_cached() + s->skeletons_cached();
  }
  return n;
}

namespace {

/// Records spans under one parent on the replay track.
struct Recorder {
  Tracer& tracer;
  std::uint32_t request;
  std::uint32_t parent;

  void add(const char* layer, const char* stem, double t0) {
    Span s;
    s.id = tracer.next_id();
    s.parent = parent;
    s.track = 2;
    s.request = request;
    s.layer = layer;
    s.stem = stem;
    s.start_us = t0;
    s.end_us = tracer.now_us();
    tracer.add(s);
  }
};

}  // namespace

std::string replay(const GenRequest& gen, std::uint32_t request_index,
                   std::uint32_t parent, ShadowPool& shadow, Tracer& tracer,
                   ReplayCounters& counters) {
  Recorder rec{tracer, request_index, parent};

  double t = tracer.now_us();
  const auto parsed = Json::parse_or_throw(gen.line);
  const swperf::serve::Request req = swperf::serve::parse_request(parsed);
  rec.add("serde", "serde.parse", t);
  pipeline::Session& session = shadow.get(req);

  if (const Json* chip = req.entry.find("chip")) {
    t = tracer.now_us();
    const auto spec = pipeline::chip_scenario_spec_from_json(*chip);
    rec.add("serde", "serde.parse", t);
    t = tracer.now_us();
    const auto scenario = pipeline::assemble_chip_scenario(spec, session);
    rec.add("swacc", "pipeline.lower", t);
    t = tracer.now_us();
    const auto result = swperf::sim::simulate_chip(scenario);
    rec.add("sim", "sim.chip", t);
    t = tracer.now_us();
    Json out = Json::object();
    out.set("kernel", "chip");
    out.set("ok", true);
    out.set("chip", serde::to_json(result));
    std::string reply =
        swperf::serve::finish_reply(req, std::move(out), false).dump();
    rec.add("serde", "serde.render", t);
    return reply;
  }

  t = tracer.now_us();
  const auto spec = swperf::kernels::make(req.entry.at("kernel").as_string(),
                                          swperf::kernels::Scale::kSmall);
  const auto& desc = spec.desc;
  const auto params =
      req.entry.contains("params")
          ? serde::launch_params_from_json(req.entry.at("params"))
          : spec.tuned;
  rec.add("serde", "serde.parse", t);

  // A lowering is swacc work on a memo miss and a pipeline lookup on a hit;
  // the memo's size tells which one this call was.
  const auto lower = [&] {
    const std::size_t before = session.lowered_cached();
    const double t0 = tracer.now_us();
    const auto& lk = session.lower(desc, params);
    const bool miss = session.lowered_cached() != before;
    rec.add(miss ? "swacc" : "pipeline",
            miss ? "pipeline.lower" : "pipeline.lookup", t0);
    return &lk;
  };
  const auto simulate = [&] {
    const std::size_t before = session.simulated_cached();
    const double t0 = tracer.now_us();
    const auto& r = session.simulate(desc, params);
    const bool miss = session.simulated_cached() != before;
    rec.add(miss ? "sim" : "pipeline",
            miss ? "sim.simulate" : "pipeline.lookup", t0);
    if (miss) {
      ++counters.sims;
      counters.events_popped += r.counters.events_popped;
      counters.pushes_avoided += r.counters.heap_pushes_avoided;
    }
    return &r;
  };
  const auto predict = [&] {
    lower();
    const double t0 = tracer.now_us();
    auto p = session.predict(desc, params);
    rec.add("model", "model.predict", t0);
    return p;
  };

  t = tracer.now_us();
  Json out = Json::object();
  out.set("kernel", desc.name);
  out.set("ok", true);
  out.set("params", serde::to_json(params));
  rec.add("serde", "serde.render", t);
  bool did_sim = false;
  bool did_model = false;
  for (const Json& stage_json : req.entry.at("stages").items()) {
    const std::string& stage = stage_json.as_string();
    if (stage == "check") {
      t = tracer.now_us();
      const auto diags = session.check(desc, params);
      rec.add("analysis", "analysis.check", t);
      t = tracer.now_us();
      out.set("check", serde::to_json(diags));
      rec.add("serde", "serde.render", t);
    } else if (stage == "sim") {
      lower();
      const auto* r = simulate();
      t = tracer.now_us();
      out.set("actual", serde::to_json(*r));
      rec.add("serde", "serde.render", t);
      did_sim = true;
    } else if (stage == "model") {
      const auto p = predict();
      t = tracer.now_us();
      out.set("predicted", serde::to_json(p));
      rec.add("serde", "serde.render", t);
      did_model = true;
    } else if (stage == "explain") {
      t = tracer.now_us();
      const auto e = session.explain(desc, params);
      rec.add("explain", "explain.explain", t);
      t = tracer.now_us();
      out.set("explain", swperf::explain::to_json(e));
      rec.add("serde", "serde.render", t);
    } else if (stage == "tune") {
      t = tracer.now_us();
      const auto space =
          swperf::tuning::SearchSpace::standard(desc, session.arch());
      const auto result = session.tune(desc, space);
      rec.add("tuning", "tuning.tune", t);
      ++counters.tunes;
      counters.tune_evaluations += result.stats.evaluations;
      counters.tune_cache_hits += result.stats.cache_hits;
      counters.tune_variants += result.variants;
      counters.tune_bound_pruned += result.stats.bound_pruned;
      t = tracer.now_us();
      out.set("tune", serde::to_json(result));
      rec.add("serde", "serde.render", t);
    } else if (stage == "optimize") {
      t = tracer.now_us();
      swperf::transform::Optimizer optimizer(session);
      const auto result = optimizer.optimize(desc, params);
      rec.add("transform", "transform.optimize", t);
      ++counters.optimizes;
      counters.steps_tried += result.steps.size();
      counters.steps_accepted +=
          static_cast<std::uint64_t>(result.accepted_steps);
      t = tracer.now_us();
      out.set("optimize", serde::optimize_report_json(result, true));
      rec.add("serde", "serde.render", t);
    }
  }
  if (did_sim || did_model) {
    const auto* lk = lower();
    t = tracer.now_us();
    out.set("summary", serde::to_json(lk->summary));
    rec.add("serde", "serde.render", t);
  }
  if (did_sim && did_model) {
    const auto p = predict();
    const auto* r = simulate();
    out.set("error", pipeline::relative_error(p.t_total, r->total_cycles()));
  }
  t = tracer.now_us();
  std::string reply =
      swperf::serve::finish_reply(req, std::move(out), false).dump();
  rec.add("serde", "serde.render", t);
  return reply;
}

std::string execute_on(const GenRequest& gen, ShadowPool& shadow) {
  const swperf::serve::Request req =
      swperf::serve::parse_request(Json::parse_or_throw(gen.line));
  bool failed = false;
  Json result =
      swperf::serve::execute_entry(req.entry, shadow.get(req), failed);
  return swperf::serve::finish_reply(req, std::move(result), failed).dump();
}

namespace {

Json strip(const Json& j, bool top) {
  if (j.is_array()) {
    Json a = Json::array();
    for (const Json& v : j.items()) a.push_back(strip(v, false));
    return a;
  }
  if (!j.is_object()) return j;
  Json o = Json::object();
  for (const auto& [key, value] : j.members()) {
    if (key == "host_seconds" || (top && key == "id")) continue;
    o.set(key, strip(value, false));
  }
  return o;
}

}  // namespace

std::string comparable(const std::string& reply) {
  const auto parsed = Json::parse(reply);
  return parsed.ok ? strip(parsed.value, true).dump() : reply;
}

}  // namespace swbench
