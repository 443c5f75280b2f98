#include "arfs/support/fleet.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "arfs/common/check.hpp"
#include "arfs/common/rng.hpp"
#include "arfs/storage/arena.hpp"
#include "arfs/support/mission.hpp"

namespace arfs::support {

namespace {

inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

}  // namespace

PooledMission::PooledMission(const MissionFactory& factory,
                             Cycle warmup_frames)
    : mission_(factory()), warmup_(warmup_frames) {
  require(mission_.system != nullptr, "mission factory built no system");
  core::System& sys = *mission_.system;
  ladder_.emplace_back(0, sys.checkpoint());
  if (warmup_frames > 0) {
    const Cycle stride = sim::auto_stride(warmup_frames);
    Cycle frame = 0;
    while (frame < warmup_frames) {
      const Cycle step = std::min(stride, warmup_frames - frame);
      sys.run(step);
      frame += step;
      ladder_.emplace_back(frame, sys.checkpoint());
    }
  }
}

void PooledMission::reset() {
  mission_.system->restore(ladder_.back().second);
  ++resets_;
}

void PooledMission::reset_to(Cycle frame) {
  require(frame <= warmup_, "reset_to target beyond the warm-up prefix");
  // Nearest ladder checkpoint at or below `frame`; ladder frames are
  // strictly increasing, so the predecessor of the first frame > `frame`.
  auto it = std::upper_bound(
      ladder_.begin(), ladder_.end(), frame,
      [](Cycle f, const auto& entry) { return f < entry.first; });
  --it;
  const std::size_t rung = static_cast<std::size_t>(it - ladder_.begin());
  if (rung < rung_spilled_.size() && rung_spilled_[rung]) {
    // The restore below faults the rung's device bytes back in (the fork
    // inside restore hydrates spilled backends); account for it here.
    rung_spilled_[rung] = false;
    ++hydrations_;
  }
  mission_.system->restore(it->second);
  if (frame > it->first) mission_.system->run(frame - it->first);
  ++resets_;
}

std::uint64_t PooledMission::spill_cold(storage::MappedArena& arena) {
  if (ladder_.size() <= 1) return 0;  // nothing but the warm point
  rung_spilled_.resize(ladder_.size(), false);
  std::uint64_t bytes = 0;
  for (std::size_t r = 0; r + 1 < ladder_.size(); ++r) {
    if (rung_spilled_[r]) continue;
    const std::uint64_t spilled = ladder_[r].second.spill_devices(arena);
    if (spilled > 0) rung_spilled_[r] = true;
    bytes += spilled;
  }
  return bytes;
}

SystemPool::SystemPool(MissionFactory factory, Cycle warmup_frames)
    : factory_(std::move(factory)), warmup_(warmup_frames) {
  require(static_cast<bool>(factory_), "system pool needs a mission factory");
}

SystemPool::Lease::~Lease() {
  if (mission_ != nullptr) pool_->give_back(std::move(mission_));
}

SystemPool::Lease SystemPool::lease() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.leases;
    if (!idle_.empty()) {
      std::unique_ptr<PooledMission> mission = std::move(idle_.back());
      idle_.pop_back();
      return Lease(*this, std::move(mission));
    }
    ++stats_.constructions;
  }
  // Construct (and warm) outside the lock: the expensive path must not
  // serialize other lanes' lease/release traffic.
  return Lease(*this, std::make_unique<PooledMission>(factory_, warmup_));
}

void SystemPool::enable_spill(storage::MappedArena& arena,
                              std::size_t hot_limit) {
  std::lock_guard<std::mutex> lock(mutex_);
  spill_arena_ = &arena;
  spill_hot_limit_ = hot_limit;
}

SystemPool::Stats SystemPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  // Hydration counts live in the missions; the idle set covers all of them
  // once every lease has been returned (post-sweep).
  for (const auto& mission : idle_) out.hydrations += mission->hydrations();
  return out;
}

void SystemPool::give_back(std::unique_ptr<PooledMission> mission) {
  std::lock_guard<std::mutex> lock(mutex_);
  idle_.push_back(std::move(mission));
  if (spill_arena_ == nullptr) return;
  // LRU spill: lease() pops from the back, so the front of `idle_` is the
  // coldest. Everything beyond the hot floor spills its cold rungs.
  for (std::size_t i = 0;
       i + spill_hot_limit_ < idle_.size(); ++i) {
    const std::uint64_t bytes = idle_[i]->spill_cold(*spill_arena_);
    if (bytes > 0) {
      ++stats_.spills;
      stats_.spill_bytes += bytes;
    }
  }
}

PlanFactory make_env_plan_factory(EnvPlanParams params) {
  require(!params.factors.empty(), "env plan factory needs factors");
  require(params.frames > 0, "env plan factory needs a positive frame span");
  return [params = std::move(params)](std::uint64_t seed) {
    Rng rng(seed);
    MissionProfile profile(params.frame_length);
    for (std::size_t c = 0; c < params.changes; ++c) {
      const env::FactorSpec& factor =
          params.factors[static_cast<std::size_t>(
              rng.uniform(0, params.factors.size() - 1))];
      const Cycle frame =
          params.first_frame +
          static_cast<Cycle>(rng.uniform(0, params.frames - 1));
      const std::int64_t value =
          factor.min_value +
          static_cast<std::int64_t>(rng.uniform(
              0, static_cast<std::uint64_t>(factor.max_value -
                                            factor.min_value)));
      profile.at(frame, factor.id, value);
    }
    return profile.build();
  };
}

namespace {

/// Per-chunk accumulator: plain tallies plus the chunk's sample-digest
/// stream, and — pooled mode only — the chunk's system lease (chunk-scoped
/// scratch; released at the chunk's last sample, never crosses the fold).
struct MissionAcc {
  std::uint64_t samples = 0;
  std::uint64_t frames_run = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t region_relocations = 0;
  std::uint64_t deadline_violations = 0;
  std::uint64_t pool_resets = 0;
  std::uint64_t systems_constructed = 0;
  std::uint64_t chunk_digest = kFnvBasis;
  /// Folded stream of chunk digests — only the running total uses it.
  std::uint64_t digest = kFnvBasis;
  std::optional<SystemPool::Lease> lease;
  /// Arena evidence (chunk-scoped scratch, like the lease): the chunk's
  /// open region, its row window, and the next row slot.
  storage::MappedArena::RegionId evidence_region =
      storage::MappedArena::kNoRegion;
  MissionEvidence* evidence_rows = nullptr;
  std::size_t evidence_next = 0;
};

/// Runs the post-warm mission leg on a system standing at the warm point,
/// tallies its stats deltas plus final digest, and returns the sample's
/// evidence row.
MissionEvidence fly_sample(core::System& sys, const PlanFactory& plan_for,
                           const sim::FleetSample& sample, Cycle frames,
                           MissionAcc& acc) {
  const core::SystemStats before = sys.stats();
  const std::uint64_t reconfigs_before =
      sys.scram().stats().reconfigs_completed;
  sys.set_fault_plan(plan_for(sample.seed));
  sys.run(frames);
  const core::SystemStats after = sys.stats();
  MissionEvidence ev;
  ev.digest = sys.digest();
  ev.fault_events = static_cast<std::uint32_t>(
      after.fault_events_applied - before.fault_events_applied);
  ev.reconfigurations = static_cast<std::uint32_t>(
      sys.scram().stats().reconfigs_completed - reconfigs_before);
  ev.region_relocations = static_cast<std::uint32_t>(
      after.region_relocations - before.region_relocations);
  ev.deadline_violations = static_cast<std::uint32_t>(
      after.deadline_violations - before.deadline_violations);
  ++acc.samples;
  acc.frames_run += after.frames_run - before.frames_run;
  acc.fault_events += ev.fault_events;
  acc.reconfigurations += ev.reconfigurations;
  acc.region_relocations += ev.region_relocations;
  acc.deadline_violations += ev.deadline_violations;
  fnv_mix(acc.chunk_digest, ev.digest);
  return ev;
}

}  // namespace

FleetMissionReport run_fleet_missions(const MissionFactory& factory,
                                      const PlanFactory& plan_for,
                                      const FleetMissionOptions& options,
                                      sim::FleetRunner& fleet) {
  require(static_cast<bool>(factory), "fleet sweep needs a mission factory");
  require(static_cast<bool>(plan_for), "fleet sweep needs a plan factory");
  require(options.frames > 0, "fleet sweep needs a positive mission length");

  // Nothing reads a sample's trace, and every checkpoint, restore and
  // digest would copy it whole: build every system non-recording, pooled or
  // not, before it runs its first frame. The digest does not mix the trace,
  // so the report is the same as a recording sweep's.
  const MissionFactory untraced = [&factory] {
    CrashMission mission = factory();
    require(mission.system != nullptr, "mission factory built no system");
    mission.system->set_record_trace(false);
    return mission;
  };

  const sim::ShardPlan plan = fleet.plan(options.samples);
  SystemPool pool(untraced, options.warmup_frames);
  const bool pooled = options.pool_systems;

  // Arena evidence: one region per chunk, written lock-free by the owning
  // worker (slot discipline as in FleetRunner::materialize — a chunk is one
  // job and owns its slot).
  storage::MappedArena* arena = fleet.options().arena;
  std::vector<storage::MappedArena::RegionId> evidence_regions;
  if (arena != nullptr) {
    evidence_regions.assign(plan.chunks(), storage::MappedArena::kNoRegion);
  }
  if (pooled && arena != nullptr && options.pool_hot_limit > 0) {
    pool.enable_spill(*arena, options.pool_hot_limit);
  }

  const auto last_of_chunk = [&plan](std::size_t index) {
    return (index + 1) % plan.chunk() == 0 || index + 1 == plan.samples();
  };

  MissionAcc total = fleet.reduce<MissionAcc>(
      options.samples, options.base_seed,
      [&](const sim::FleetSample& sample, MissionAcc& acc) {
        MissionEvidence ev;
        if (pooled) {
          // Chunk-grain lease: acquired at the chunk's first sample,
          // released at its last — the pool mutex never rides the
          // per-sample path.
          if (!acc.lease.has_value()) acc.lease.emplace(pool.lease());
          PooledMission& mission = acc.lease->mission();
          mission.reset();
          ev = fly_sample(mission.system(), plan_for, sample,
                          options.frames, acc);
          ++acc.pool_resets;
          if (last_of_chunk(sample.index)) acc.lease.reset();
        } else {
          // Ablation oracle: fresh construction plus warm-up replay per
          // sample. Bit-identical to the pooled path — the plan's events
          // all land at or after the warm point.
          CrashMission mission = untraced();
          if (options.warmup_frames > 0) {
            mission.system->run(options.warmup_frames);
          }
          ev = fly_sample(*mission.system, plan_for, sample,
                          options.frames, acc);
          ++acc.systems_constructed;
        }
        if (arena != nullptr) {
          const std::size_t chunk = sample.index / plan.chunk();
          if (acc.evidence_rows == nullptr) {
            acc.evidence_region = arena->allocate(
                plan.samples_of_chunk(chunk).size() *
                sizeof(MissionEvidence));
            acc.evidence_rows = reinterpret_cast<MissionEvidence*>(
                arena->data(acc.evidence_region));
            acc.evidence_next = 0;
          }
          std::memcpy(acc.evidence_rows + acc.evidence_next, &ev,
                      sizeof(MissionEvidence));
          ++acc.evidence_next;
          if (last_of_chunk(sample.index)) {
            arena->seal(acc.evidence_region);
            evidence_regions[chunk] = acc.evidence_region;
            acc.evidence_region = storage::MappedArena::kNoRegion;
            acc.evidence_rows = nullptr;
          }
        }
      },
      [](MissionAcc& into, MissionAcc& part) {
        into.samples += part.samples;
        into.frames_run += part.frames_run;
        into.fault_events += part.fault_events;
        into.reconfigurations += part.reconfigurations;
        into.region_relocations += part.region_relocations;
        into.deadline_violations += part.deadline_violations;
        into.pool_resets += part.pool_resets;
        into.systems_constructed += part.systems_constructed;
        fnv_mix(into.digest, part.chunk_digest);
      });

  FleetMissionReport report;
  report.samples = total.samples;
  report.frames_run = total.frames_run;
  report.fault_events = total.fault_events;
  report.reconfigurations = total.reconfigurations;
  report.region_relocations = total.region_relocations;
  report.deadline_violations = total.deadline_violations;
  report.digest = total.digest;
  report.pool_resets = total.pool_resets;
  if (pooled) {
    const SystemPool::Stats pool_stats = pool.stats();
    report.systems_constructed = pool_stats.constructions;
    report.pool_spills = pool_stats.spills;
    report.pool_spill_bytes = pool_stats.spill_bytes;
    report.pool_hydrations = pool_stats.hydrations;
  } else {
    report.systems_constructed = total.systems_constructed;
  }
  if (arena != nullptr) {
    // Round-trip proof: stream the materialized evidence rows back in
    // global chunk order and refold the digest with the exact per-chunk
    // fold reduce() used (per-chunk basis, row digests, chunk mix).
    report.arena_backed = true;
    report.evidence_rows = plan.samples();
    sim::ArenaCursor<MissionEvidence> cursor(*arena, plan,
                                             std::move(evidence_regions));
    std::uint64_t refold = kFnvBasis;
    cursor.for_each_chunk(
        [&](const MissionEvidence* rows, std::size_t n, std::size_t) {
          std::uint64_t h = kFnvBasis;
          for (std::size_t i = 0; i < n; ++i) fnv_mix(h, rows[i].digest);
          fnv_mix(refold, h);
        });
    report.evidence_digest = refold;
    report.evidence_matches = report.evidence_digest == report.digest;
  }
  return report;
}

}  // namespace arfs::support
