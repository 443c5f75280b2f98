#include "missions.hpp"

#include <memory>
#include <optional>
#include <utility>

#include "arfs/avionics/autopilot.hpp"
#include "arfs/avionics/fcs.hpp"
#include "arfs/avionics/sensors.hpp"
#include "arfs/avionics/uav_system.hpp"
#include "arfs/failstop/processor.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"

namespace perfbench {

using namespace arfs;

namespace {

core::ReconfigSpec chain_spec() {
  support::ChainSpecParams params;
  params.configs = 4;
  return support::make_chain_spec(params);
}

core::ReconfigSpec uav_spec() {
  avionics::UavSpecOptions options;
  options.dwell_frames = 10;
  return avionics::make_uav_spec(options);
}

}  // namespace

support::MissionFactory chain_mission(std::uint32_t quorum_replicas,
                                      sim::FaultPlan plan) {
  return [quorum_replicas, plan = std::move(plan)] {
    // Everything the system borrows is rebuilt per call, so concurrent
    // calls share no mutable state.
    auto spec = std::make_shared<core::ReconfigSpec>(chain_spec());
    core::SystemOptions options;
    options.frame_length = kChainFrameLength;
    options.durable_storage = true;
    options.journal_shipping = quorum_replicas > 0;
    options.quorum_replicas = quorum_replicas;
    options.durability.snapshot_every_epochs = 7;
    auto system = std::make_unique<core::System>(*spec, options);
    for (const core::AppDecl& decl : spec->apps()) {
      system->add_app(std::make_unique<support::SimpleApp>(decl.id, decl.name));
    }
    if (!plan.empty()) system->set_fault_plan(plan);
    support::CrashMission mission;
    mission.keepalive = spec;
    mission.system = std::move(system);
    return mission;
  };
}

support::MissionFactory uav_mission() {
  return [] {
    struct Bundle {
      core::ReconfigSpec spec = uav_spec();
      avionics::UavPlant plant{42};
    };
    auto bundle = std::make_shared<Bundle>();
    core::SystemOptions options;
    options.frame_length = kUavFrameLength;
    options.durable_storage = true;
    options.durability.snapshot_every_epochs = 16;
    auto system = std::make_unique<core::System>(bundle->spec, options);
    system->add_app(std::make_unique<avionics::AutopilotApp>(bundle->plant));
    system->add_app(std::make_unique<avionics::FcsApp>(bundle->plant));
    support::CrashMission mission;
    mission.keepalive = bundle;
    mission.system = std::move(system);
    return mission;
  };
}

support::PlanFactory env_plans(bool uav, std::size_t changes,
                               Cycle first_frame, Cycle frames) {
  support::EnvPlanParams params;
  params.factors = (uav ? uav_spec() : chain_spec()).factors().factors();
  params.changes = changes;
  params.first_frame = first_frame;
  params.frames = frames;
  params.frame_length = uav ? kUavFrameLength : kChainFrameLength;
  return support::make_env_plan_factory(std::move(params));
}

Counters Counters::read(core::System& system) {
  const core::SystemStats& stats = system.stats();
  Counters c;
  c.frames = stats.frames_run;
  c.fault_events = stats.fault_events_applied;
  c.reconfigurations = system.scram().stats().reconfigs_completed;
  c.region_relocations = stats.region_relocations;
  c.deadline_violations = stats.deadline_violations;
  c.ship_bytes = stats.ship_bytes_total;
  failstop::ProcessorGroup& group = system.processors();
  for (const ProcessorId id : group.processor_ids()) {
    const storage::durable::DurabilityEngine* engine =
        group.processor(id).durability();
    if (engine == nullptr) continue;
    const storage::durable::DurabilityStats& d = engine->stats();
    c.bytes_appended += d.bytes_appended;
    c.syncs += d.syncs;
    c.cache_hits += d.block_cache_hits;
    c.cache_misses += d.block_cache_misses;
  }
  return c;
}

Counters Counters::since(const Counters& before) const {
  Counters d;
  d.frames = frames - before.frames;
  d.fault_events = fault_events - before.fault_events;
  d.reconfigurations = reconfigurations - before.reconfigurations;
  d.region_relocations = region_relocations - before.region_relocations;
  d.deadline_violations = deadline_violations - before.deadline_violations;
  d.ship_bytes = ship_bytes - before.ship_bytes;
  d.bytes_appended = bytes_appended - before.bytes_appended;
  d.syncs = syncs - before.syncs;
  d.cache_hits = cache_hits - before.cache_hits;
  d.cache_misses = cache_misses - before.cache_misses;
  return d;
}

Counters& Counters::operator+=(const Counters& other) {
  frames += other.frames;
  fault_events += other.fault_events;
  reconfigurations += other.reconfigurations;
  region_relocations += other.region_relocations;
  deadline_violations += other.deadline_violations;
  ship_bytes += other.ship_bytes;
  bytes_appended += other.bytes_appended;
  syncs += other.syncs;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  return *this;
}

void PassCounts::report(Result& result) const {
  result.count("support.simulated_frames",
               static_cast<double>(simulated_frames));
  result.count("support.checkpoints_taken",
               static_cast<double>(checkpoints_taken));
  result.count("support.pool_resets", static_cast<double>(pool_resets));
  result.count("serve.frames_skipped", static_cast<double>(frames_skipped));
  result.count("serve.gap_records", static_cast<double>(gap_records));
}

void report_counters(const Counters& replay, Result& result) {
  const auto per_frame = [&](std::uint64_t v) {
    return replay.frames > 0
               ? static_cast<double>(v) / static_cast<double>(replay.frames)
               : 0.0;
  };
  const std::uint64_t lookups = replay.cache_hits + replay.cache_misses;
  result.count("storage.bytes_appended_per_frame",
               per_frame(replay.bytes_appended), "B/frame");
  result.count("storage.syncs_per_frame", per_frame(replay.syncs),
               "1/frame");
  result.count("storage.block_cache_hit_rate",
               lookups > 0 ? static_cast<double>(replay.cache_hits) /
                                 static_cast<double>(lookups)
                           : 0.0,
               "ratio");
  result.count("storage.block_cache_lookups", static_cast<double>(lookups));
  result.count("core.ship_bytes_per_frame", per_frame(replay.ship_bytes),
               "B/frame");
  result.count("core.replay_frames", static_cast<double>(replay.frames));
  result.count("core.reconfigurations",
               static_cast<double>(replay.reconfigurations));
  result.count("core.region_relocations",
               static_cast<double>(replay.region_relocations));
  result.count("core.deadline_violations",
               static_cast<double>(replay.deadline_violations));
  result.count("core.fault_events", static_cast<double>(replay.fault_events));
}

}  // namespace perfbench
