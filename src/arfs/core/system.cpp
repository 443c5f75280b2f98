#include "arfs/core/system.hpp"

#include <algorithm>
#include <utility>

#include "arfs/common/check.hpp"
#include "arfs/common/log.hpp"

namespace arfs::core {

/// One warm-standby replica cohort: a QuorumGroup fanning the source
/// processor's synced journal out to N members (N = 1 is the single
/// standby), each with its own TDMA shipping slot on the schedule (looked up
/// by the cached endpoint). Every member runs its own standby durability
/// engine, so the standby state survives with the source's guarantees.
struct System::QuorumChannel {
  EndpointId endpoint;
  storage::durable::quorum::QuorumGroup group;

  QuorumChannel(EndpointId endpoint_id,
                storage::durable::DurabilityEngine& source,
                const storage::durable::quorum::QuorumOptions& options)
      : endpoint(endpoint_id), group(source, options) {}
};

/// Reads peer applications' committed stable variables by polling the
/// processor currently holding the peer's region (which may itself have
/// failed — polling stable storage of failed processors is the fail-stop
/// model's recovery primitive).
class System::SystemPeerReader final : public PeerReader {
 public:
  explicit SystemPeerReader(const System& system) : system_(&system) {}

  [[nodiscard]] Expected<storage::Value> read_peer(
      AppId peer, const std::string& key) const override {
    const auto it = system_->region_host_.find(peer);
    if (it == system_->region_host_.end()) {
      return unexpected("peer app has no stable region");
    }
    // Peer reads happen every frame for every dependency edge; assembling
    // the full key from the cached prefix into a reused buffer keeps the
    // per-read cost at one amortized-allocation-free append.
    key_buf_.assign(system_->app_prefix(peer));
    key_buf_.append(key);
    return system_->group_.processor(it->second).poll_stable().read(key_buf_);
  }

 private:
  const System* system_;
  mutable std::string key_buf_;
};

namespace {

/// All processors any configuration places an application on, deduplicated
/// by sort + unique (the old linear-scan dedup was quadratic in the fleet
/// size, which large synthetic specs actually hit).
std::vector<ProcessorId> placement_processors(const ReconfigSpec& spec) {
  std::vector<ProcessorId> out;
  for (const auto& [id, config] : spec.configs()) {
    const auto& used = config.processors_used();
    out.insert(out.end(), used.begin(), used.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::string directive_name(DirectiveKind kind) {
  switch (kind) {
    case DirectiveKind::kNone:       return "normal";
    case DirectiveKind::kHalt:       return "halt";
    case DirectiveKind::kPrepare:    return "prepare";
    case DirectiveKind::kInitialize: return "initialize";
  }
  return "?";
}

}  // namespace

System::System(const ReconfigSpec& spec, SystemOptions options)
    : spec_(spec), options_(options), clock_(options.frame_length),
      activity_(options.detection_threshold), scram_(spec, options.scram),
      noise_rng_(options.noise_seed), trace_(options.frame_length) {
  spec.validate();
  require(options.heartbeat_loss_prob >= 0.0 &&
              options.heartbeat_loss_prob < 1.0,
          "heartbeat loss probability must be in [0, 1)");

  std::uint32_t max_id = 0;
  for (const ProcessorId p : placement_processors(spec)) {
    group_.add_processor(p);
    max_id = std::max(max_id, p.value() + 1);
  }
  scram_proc_ = ProcessorId{max_id};
  group_.add_processor(scram_proc_);
  if (options.durable_storage) {
    for (const ProcessorId p : group_.processor_ids()) {
      group_.processor(p).enable_durability(
          storage::durable::make_memory_engine(options.durability));
    }
  }
  require(!options.journal_shipping || options.durable_storage,
          "journal_shipping requires durable_storage");
  require(options.quorum_replicas == 0 || options.journal_shipping,
          "quorum_replicas requires journal_shipping");
  if (options.journal_shipping) {
    for (const ProcessorId p : group_.processor_ids()) {
      storage::durable::DurabilityEngine* engine =
          group_.processor(p).durability();
      ensure(engine != nullptr, "durable processor without engine");
      const EndpointId endpoint{p.value()};
      storage::durable::quorum::QuorumOptions qopts;
      qopts.replicas = std::max<std::uint32_t>(1, options.quorum_replicas);
      qopts.member_durability = options.durability;
      for (std::uint32_t m = 0; m < qopts.replicas; ++m) {
        ship_schedule_.add_quorum_slot(endpoint, m, /*length=*/100,
                                       options.ship_slot_bytes);
      }
      quorum_channels_.emplace(
          p, std::make_unique<QuorumChannel>(endpoint, *engine, qopts));
    }
  }

  spec.factors().initialize(environment_);
  for (const env::FactorSpec& f : spec.factors().factors()) {
    monitors_.emplace_back(spec.factors(), f.id);
  }

  for (const AppDecl& decl : spec.apps()) {
    const std::string id = std::to_string(decl.id.value());
    app_prefix_.emplace(decl.id, "a" + id + "/");
    scram_status_key_.emplace(decl.id, "scram/a" + id + "/status");
  }

  peer_reader_ = std::make_unique<SystemPeerReader>(*this);
}

const std::string& System::app_prefix(AppId app) const {
  const auto it = app_prefix_.find(app);
  require(it != app_prefix_.end(), "app not declared in the spec");
  return it->second;
}

System::~System() = default;

void System::add_app(std::unique_ptr<ReconfigurableApp> app) {
  require(app != nullptr, "null application");
  require(!started_, "cannot add applications after the system started");
  require(spec_.has_app(app->id()), "application was not declared in the spec");
  const AppId id = app->id();
  const bool inserted = apps_.emplace(id, std::move(app)).second;
  require(inserted, "application added twice");
}

void System::set_fault_plan(sim::FaultPlan plan) {
  fault_plan_ = std::move(plan);
}

void System::bind_processor_factor(ProcessorId processor, FactorId factor) {
  require(group_.has_processor(processor), "unknown processor");
  require(spec_.factors().declared(factor),
          "processor factor must be declared in the spec");
  processor_factors_[processor] = factor;
}

void System::add_env_hook(EnvHook hook) {
  require(static_cast<bool>(hook), "null environment hook");
  env_hooks_.push_back(std::move(hook));
}

void System::set_factor(FactorId factor, std::int64_t value) {
  environment_.set(factor, value, clock_.now());
}

ReconfigurableApp& System::app(AppId id) {
  const auto it = apps_.find(id);
  require(it != apps_.end(), "unknown application id");
  return *it->second;
}

ProcessorId System::region_host(AppId app) const {
  const auto it = region_host_.find(app);
  require(it != region_host_.end(), "app has no stable region yet");
  return it->second;
}

void System::run(Cycle frames) {
  for (Cycle i = 0; i < frames; ++i) run_frame();
}

void System::apply_fault_event(const sim::FaultEvent& event, Cycle cycle,
                               SimTime now) {
  ++stats_.fault_events_applied;
  switch (event.kind) {
    case sim::FaultKind::kProcessorFailStop: {
      require(group_.has_processor(event.processor),
              "fault plan names unknown processor");
      failstop::Processor& proc = group_.processor(event.processor);
      if (!proc.running()) break;
      proc.fail(cycle);
      if (proc.last_recovery().has_value()) {
        const storage::durable::RecoveryReport& report =
            *proc.last_recovery();
        if (report.journal_truncated) ++stats_.journal_truncations;
        if (report.journal_truncated || proc.lost_epochs() > 0) {
          // The recovered store is older than the state the applications
          // last observed: a torn/corrupt tail was discarded, or group-
          // commit lag lost whole frame commits. Silent resume would run
          // applications whose precondition no longer holds — tell the
          // SCRAM so it can force a re-initialization (journal-aware
          // recovery, ScramOptions::reinit_on_lossy_recovery).
          ++stats_.lossy_recoveries;
          failstop::FailureSignal signal;
          signal.at = now;
          signal.cycle = cycle;
          signal.kind = failstop::SignalKind::kLossyRecovery;
          signal.processor = event.processor;
          signal.detail =
              "recovery rolled back " + std::to_string(proc.lost_epochs()) +
              " commit epoch(s)" +
              (report.journal_truncated ? "; journal tail truncated" : "");
          bank_.raise(std::move(signal));
        }
      }
      for (const auto& [app_id, host] : region_host_) {
        if (host == event.processor) apps_.at(app_id)->on_host_failure();
      }
      break;
    }
    case sim::FaultKind::kProcessorRepair: {
      failstop::Processor& proc = group_.processor(event.processor);
      if (proc.running()) break;
      proc.repair(cycle);
      break;
    }
    case sim::FaultKind::kEnvironmentChange:
      environment_.set(event.factor, event.new_value, now);
      break;
    case sim::FaultKind::kTimingOverrun:
      forced_overrun_[event.app] = true;
      break;
    case sim::FaultKind::kSoftwareFault:
      forced_fault_[event.app] = true;
      break;
    case sim::FaultKind::kJournalSyncFail:
    case sim::FaultKind::kJournalTornWrite:
    case sim::FaultKind::kJournalBitFlip: {
      require(group_.has_processor(event.processor),
              "fault plan names unknown processor");
      failstop::Processor& proc = group_.processor(event.processor);
      storage::durable::DurabilityEngine* engine = proc.durability();
      if (engine == nullptr) break;  // no device to hurt; modeled as benign
      auto& device = engine->journal();
      if (event.kind == sim::FaultKind::kJournalSyncFail) {
        device.fail_next_sync();
      } else if (event.kind == sim::FaultKind::kJournalTornWrite) {
        device.tear_on_crash(event.new_value > 0
                                 ? static_cast<std::size_t>(event.new_value)
                                 : 7);
      } else {
        device.corrupt_bit(static_cast<std::uint64_t>(event.new_value));
      }
      ++stats_.journal_faults_injected;
      break;
    }
    case sim::FaultKind::kQuorumMemberFail:
    case sim::FaultKind::kQuorumMemberRepair: {
      require(group_.has_processor(event.processor),
              "fault plan names unknown processor");
      const auto it = quorum_channels_.find(event.processor);
      if (it == quorum_channels_.end()) break;  // no cohort; modeled benign
      const auto member = static_cast<std::uint32_t>(event.new_value);
      if (member >= it->second->group.member_count()) break;
      if (it->second->group.member_retired(member)) break;
      if (event.kind == sim::FaultKind::kQuorumMemberFail) {
        fail_quorum_member(event.processor, member);
      } else {
        repair_quorum_member(event.processor, member);
      }
      break;
    }
  }
}

const storage::durable::quorum::QuorumGroup& System::quorum_group(
    ProcessorId p) const {
  const auto it = quorum_channels_.find(p);
  require(it != quorum_channels_.end(), "processor has no quorum cohort");
  return it->second->group;
}

void System::fail_quorum_member(ProcessorId p, std::uint32_t member) {
  const auto it = quorum_channels_.find(p);
  require(it != quorum_channels_.end(), "processor has no quorum cohort");
  auto& group = it->second->group;
  require(member < group.member_count(), "quorum member id out of range");
  if (group.member_retired(member) || !group.member_live(member)) return;
  const bool majority_lost = group.fail_member(member);
  ++stats_.quorum_member_failures;
  if (!majority_lost) return;
  // The cohort can no longer acknowledge commits by majority: frames keep
  // committing on the source, but their durability boundary stops advancing
  // and a relocation could only warm-start from a minority member. Tell the
  // SCRAM, like lossy recovery does.
  ++stats_.quorum_losses;
  failstop::FailureSignal s;
  s.at = clock_.now();
  s.cycle = clock_.current_frame();
  s.kind = failstop::SignalKind::kQuorumLost;
  s.processor = p;
  s.detail = "quorum cohort of processor " + std::to_string(p.value()) +
             " lost its live majority (" + std::to_string(group.live_count()) +
             "/" + std::to_string(group.member_count()) + " live)";
  bank_.raise(std::move(s));
}

void System::repair_quorum_member(ProcessorId p, std::uint32_t member) {
  const auto it = quorum_channels_.find(p);
  require(it != quorum_channels_.end(), "processor has no quorum cohort");
  auto& group = it->second->group;
  require(member < group.member_count(), "quorum member id out of range");
  if (group.member_retired(member) || group.member_live(member)) return;
  const bool majority_restored = group.repair_member(member);
  ++stats_.quorum_member_repairs;
  if (!majority_restored) return;
  ++stats_.quorum_restores;
  failstop::FailureSignal s;
  s.at = clock_.now();
  s.cycle = clock_.current_frame();
  s.kind = failstop::SignalKind::kQuorumDurable;
  s.processor = p;
  s.detail = "quorum cohort of processor " + std::to_string(p.value()) +
             " regained its live majority";
  bank_.raise(std::move(s));
}

std::optional<ProcessorId> System::execution_host(
    AppId app, const Directive& directive) const {
  const auto region_it = region_host_.find(app);
  ensure(region_it != region_host_.end(), "app region host unset");
  const ProcessorId region = region_it->second;

  switch (directive.kind) {
    case DirectiveKind::kNone:
    case DirectiveKind::kHalt: {
      if (group_.processor(region).running()) return region;
      return std::nullopt;
    }
    case DirectiveKind::kPrepare:
    case DirectiveKind::kInitialize: {
      const Configuration& target = spec_.config(directive.target_config);
      const std::optional<ProcessorId> host = target.host_of(app);
      if (host.has_value()) {
        if (group_.processor(*host).running()) return *host;
        return std::nullopt;  // target host is down
      }
      // The application is off in the target configuration; wind-down runs
      // on the old host if it survives, else it is trivially complete.
      if (group_.processor(region).running()) return region;
      return std::nullopt;
    }
  }
  return std::nullopt;
}

void System::relocate_region_if_needed(AppId app, ProcessorId to,
                                       Cycle cycle) {
  const ProcessorId from = region_host_.at(app);
  if (from == to) return;
  const std::string& prefix = app_prefix(app);

  const auto channel_it = quorum_channels_.find(from);
  if (channel_it != quorum_channels_.end()) {
    // Warm start: drain the un-shipped tail into every live cohort member,
    // then relocate from the first member — leader first, then the
    // remaining live members — whose store mirrors the source's commit
    // boundary exactly: the bus carried only the tail, not the full encoded
    // region. Any fingerprint-matched member serves; a leader change
    // between frames never forces a full copy.
    QuorumChannel& channel = *channel_it->second;
    failstop::Processor& source = group_.processor(from);
    const ShipCatchUp caught = ship_catch_up(from);
    for (const storage::durable::quorum::MemberId m :
         channel.group.warm_start_order()) {
      if (channel.group.member_needs_full_copy(m)) continue;
      if (channel.group.replica(m).store().fingerprint() !=
          source.poll_stable().fingerprint()) {
        continue;
      }
      const std::size_t copied = StableRegion::relocate(
          channel.group.replica(m).store(), group_.processor(to).stable(),
          prefix);
      region_host_[app] = to;
      ++stats_.region_relocations;
      ++stats_.warm_relocations;
      // No avoided-bytes credit when this member's warmth was bought by a
      // full-copy reseed since the last claim (the copy already paid).
      if (channel.group.take_warm_credit(m)) {
        stats_.full_copy_bytes_avoided +=
            storage::durable::encoded_state_bytes(source.poll_stable(),
                                                  prefix);
      }
      log_debug("system", "cycle ", cycle, ": warm-relocated region of app ",
                app.value(), " from processor ", from.value(), " to ",
                to.value(), " via quorum member ", m, " (", copied, " keys, ",
                caught.bytes, " tail bytes shipped)");
      return;
    }
    // No member converged on the source's boundary (a sync failure left it
    // un-shippable): full copy from the source. Lost cursors were already
    // reseeded by the catch-up, so shipping resumes cleanly.
    ++stats_.full_copy_relocations;
    stats_.full_copy_bytes +=
        storage::durable::encoded_state_bytes(source.poll_stable(), prefix);
  } else {
    // No shipping channel: every relocation moves the full encoded region.
    ++stats_.full_copy_relocations;
    stats_.full_copy_bytes += storage::durable::encoded_state_bytes(
        group_.processor(from).poll_stable(), prefix);
  }

  const std::size_t copied = StableRegion::relocate(
      group_.processor(from).poll_stable(), group_.processor(to).stable(),
      prefix);
  region_host_[app] = to;
  ++stats_.region_relocations;
  log_debug("system", "cycle ", cycle, ": relocated region of app ",
            app.value(), " from processor ", from.value(), " to ",
            to.value(), " (", copied, " keys)");
}

void System::reseed_quorum_member(ProcessorId source, QuorumChannel& channel,
                                  std::uint32_t member) {
  failstop::Processor& proc = group_.processor(source);
  storage::durable::DurabilityEngine* engine = proc.durability();
  ensure(engine != nullptr, "quorum cohort without a durability engine");
  // The copy resumes shipping at the journal's synced end: everything before
  // it is part of the copied state, everything after it ships normally. The
  // current dictionary travels with the copy (later records reference ids
  // announced before it).
  channel.group.reseed_member(member, proc.poll_stable(), engine->dictionary(),
                              engine->journal_generation(),
                              engine->journal().synced_size());
  ++stats_.ship_reseeds;
  stats_.full_copy_bytes +=
      storage::durable::encoded_state_bytes(proc.poll_stable());
}

void System::pump_quorum_channels() {
  for (auto& [pid, channel] : quorum_channels_) {
    auto& group = channel->group;
    const auto members = static_cast<std::uint32_t>(group.member_count());
    for (std::uint32_t m = 0; m < members; ++m) {
      ++stats_.ship_slots_polled;
      // Members added mid-mission by a joint membership change have no
      // static slot of their own; they ride at the configured budget too.
      std::uint32_t budget = ship_schedule_.quorum_budget(channel->endpoint, m);
      if (budget == 0) budget = options_.ship_slot_bytes;
      stats_.ship_bytes_total += group.pump_member(m, budget);
      if (group.member_live(m) && !group.member_retired(m) &&
          group.member_needs_full_copy(m)) {
        reseed_quorum_member(pid, *channel, m);
      }
    }
  }
}

System::ShipCatchUp System::ship_catch_up(ProcessorId p) {
  const auto it = quorum_channels_.find(p);
  require(it != quorum_channels_.end(), "processor has no shipping channel");
  QuorumChannel& channel = *it->second;
  failstop::Processor& proc = group_.processor(p);
  if (proc.running()) {
    // Halt-boundary flush: only synced bytes ever ship, so make the
    // source's current commit boundary shippable before draining.
    if (auto* engine = proc.durability()) (void)engine->sync_now();
  }
  ShipCatchUp result;
  auto& group = channel.group;
  const auto members = static_cast<std::uint32_t>(group.member_count());
  for (std::uint32_t m = 0; m < members; ++m) {
    result.bytes += group.catch_up_member(m);
    if (group.member_live(m) && !group.member_retired(m) &&
        group.member_needs_full_copy(m)) {
      reseed_quorum_member(p, channel, m);
      result.reseeded = true;
    }
  }
  stats_.ship_bytes_total += result.bytes;
  stats_.relocation_catchup_bytes += result.bytes;
  return result;
}

bool System::has_ship_channel(ProcessorId p) const {
  return quorum_channels_.find(p) != quorum_channels_.end();
}

const storage::durable::ShippedReplica& System::ship_replica(
    ProcessorId p) const {
  const storage::durable::quorum::QuorumGroup& group = quorum_group(p);
  const std::optional<storage::durable::quorum::MemberId> leader =
      group.leader();
  require(leader.has_value(), "quorum cohort has no live member");
  return group.replica(*leader);
}

namespace {

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFFu;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv_mix_device(std::uint64_t h,
                             const storage::durable::JournalBackend& device) {
  h = fnv_mix(h, device.size());
  h = fnv_mix(h, device.synced_size());
  std::uint8_t buf[4096];
  std::uint64_t offset = 0;
  for (;;) {
    const std::size_t n = device.read(offset, buf, sizeof buf);
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) {
      h ^= buf[i];
      h *= kFnvPrime;
    }
    offset += n;
  }
  return h;
}

std::uint64_t fnv_mix_engine(std::uint64_t h,
                             const storage::durable::EngineCheckpoint& cp) {
  h = fnv_mix_device(h, *cp.journal);
  h = fnv_mix_device(h, *cp.snapshots);
  h = fnv_mix(h, cp.appended_epoch);
  h = fnv_mix(h, cp.journal_generation);
  h = fnv_mix(h, cp.retained_tail.size());
  for (const std::uint8_t b : cp.retained_tail) {
    h ^= b;
    h *= kFnvPrime;
  }
  h = fnv_mix(h, cp.rebase_ok ? 1 : 0);
  h = fnv_mix(h, cp.rebase_epoch);
  h = fnv_mix(h, cp.ship_horizon);
  h = fnv_mix(h, cp.adaptive_watermark_fp);
  h = fnv_mix(h, cp.reconfig_pressure ? 1 : 0);
  return h;
}

std::uint64_t fnv_mix_replica(
    std::uint64_t h, const storage::durable::ShippedReplica::Checkpoint& cp) {
  h = fnv_mix(h, cp.store.fingerprint());
  h = fnv_mix(h, cp.store.commit_epochs());
  h = fnv_mix(h, cp.cursor.generation);
  h = fnv_mix(h, cp.cursor.offset);
  h = fnv_mix(h, cp.cursor.epoch);
  h = fnv_mix(h, cp.dict.size());
  for (const std::string& key : cp.dict) {
    for (const char c : key) {
      h ^= static_cast<std::uint8_t>(c);
      h *= kFnvPrime;
    }
    h = fnv_mix(h, key.size());
  }
  h = fnv_mix(h, cp.pending.size());
  for (const std::uint8_t b : cp.pending) {
    h ^= b;
    h *= kFnvPrime;
  }
  h = fnv_mix(h, cp.engine.has_value() ? 1 : 0);
  if (cp.engine.has_value()) h = fnv_mix_engine(h, *cp.engine);
  return h;
}

}  // namespace

std::uint64_t SystemCheckpoint::digest() const {
  std::uint64_t h = kFnvBasis;
  h = fnv_mix(h, frame);
  h = fnv_mix(h, static_cast<std::uint64_t>(now));

  for (const auto& [pid, p] : processors) {
    h = fnv_mix(h, pid.value());
    h = fnv_mix(h, static_cast<std::uint64_t>(p.state));
    h = fnv_mix(h, p.stable.fingerprint());
    h = fnv_mix(h, p.stable.commit_epochs());
    h = fnv_mix(h, p.volatile_store.fingerprint());
    h = fnv_mix(h, p.lost_epochs);
    h = fnv_mix(h, p.failed_at.has_value() ? *p.failed_at + 1 : 0);
    h = fnv_mix(h, p.failures);
    h = fnv_mix(h, p.durability.has_value() ? 1 : 0);
    if (p.durability.has_value()) h = fnv_mix_engine(h, *p.durability);
  }

  for (const auto& [factor, value] : environment.state()) {
    h = fnv_mix(h, factor.value());
    h = fnv_mix(h, static_cast<std::uint64_t>(value));
  }
  h = fnv_mix(h, environment.change_count());

  h = fnv_mix(h, bank.pending());
  h = fnv_mix(h, bank.total_raised());
  h = fnv_mix(h, health.overrun_count());
  h = fnv_mix(h, health.fault_count());
  h = fnv_mix(h, health.events().size());

  h = fnv_mix(h, scram.current.value());
  h = fnv_mix(h, scram.target.value());
  h = fnv_mix(h, static_cast<std::uint64_t>(scram.phase));
  for (const auto& [app, done] : scram.done) {
    h = fnv_mix(h, app.value());
    h = fnv_mix(h, done ? 1 : 0);
  }
  for (const auto& [app, stage] : scram.stage) {
    h = fnv_mix(h, app.value());
    h = fnv_mix(h, static_cast<std::uint64_t>(stage));
  }
  for (const auto* phase_map :
       {&scram.halt_done, &scram.prepare_done, &scram.init_done}) {
    for (const auto& [app, done] : *phase_map) {
      h = fnv_mix(h, app.value());
      h = fnv_mix(h, done ? 1 : 0);
    }
  }
  h = fnv_mix(h, scram.pending_trigger ? 1 : 0);
  h = fnv_mix(h, scram.lossy_pending ? 1 : 0);
  h = fnv_mix(h, scram.active_start.has_value() ? *scram.active_start + 1 : 0);
  h = fnv_mix(h, scram.dwell_until);
  h = fnv_mix(h, scram.stats.triggers_received);
  h = fnv_mix(h, scram.stats.reconfigs_started);
  h = fnv_mix(h, scram.stats.reconfigs_completed);
  h = fnv_mix(h, scram.stats.triggers_absorbed);
  h = fnv_mix(h, scram.stats.retargets);
  h = fnv_mix(h, scram.stats.buffered_triggers);
  h = fnv_mix(h, scram.stats.dwell_blocked_frames);
  h = fnv_mix(h, scram.stats.lossy_reinits);
  h = fnv_mix(h, scram.stats.quorum_losses);
  h = fnv_mix(h, scram.stats.quorum_restores);

  for (const auto& [id, a] : apps) {
    h = fnv_mix(h, id.value());
    h = fnv_mix(h, static_cast<std::uint64_t>(a.state));
    h = fnv_mix(h, a.spec.has_value() ? a.spec->value() + 1 : 0);
    h = fnv_mix(h, (a.post_ok ? 4u : 0u) | (a.trans_ok ? 2u : 0u) |
                       (a.pre_ok ? 1u : 0u));
    h = fnv_mix(h, a.domain.size());
    for (const std::uint64_t word : a.domain) h = fnv_mix(h, word);
  }

  for (const auto& [app, host] : region_host) {
    h = fnv_mix(h, app.value());
    h = fnv_mix(h, host.value());
  }

  h = fnv_mix(h, fault_plan.size());
  h = fnv_mix(h, fault_plan.consumed());
  for (const auto* flag_map : {&forced_overrun, &forced_fault}) {
    for (const auto& [app, flag] : *flag_map) {
      h = fnv_mix(h, app.value());
      h = fnv_mix(h, flag ? 1 : 0);
    }
  }

  h = fnv_mix(h, router.stats().sent);
  h = fnv_mix(h, router.stats().delivered);
  h = fnv_mix(h, router.stats().dropped_dead_host);
  h = fnv_mix(h, router.stats().dropped_unknown);

  h = fnv_mix(h, deadline_alarm_raised ? 1 : 0);
  h = fnv_mix(h, noise_rng_state);

  for (const auto& [pid, qcp] : quorum_channels) {
    h = fnv_mix(h, pid.value());
    h = fnv_mix(h, qcp.members.size());
    for (const auto& m : qcp.members) {
      h = fnv_mix_replica(h, m.replica);
      h = fnv_mix(h, m.last_applied);
      h = fnv_mix(h, (m.live ? 4u : 0u) | (m.retired ? 2u : 0u) |
                         (m.needs_full_copy ? 1u : 0u));
      h = fnv_mix(h, m.warm_credit ? 1 : 0);
      h = fnv_mix(h, m.consecutive_corrupt);
    }
    h = fnv_mix(h, qcp.old_voters.size());
    for (const auto v : qcp.old_voters) h = fnv_mix(h, v);
    h = fnv_mix(h, qcp.new_voters.size());
    for (const auto v : qcp.new_voters) h = fnv_mix(h, v);
    h = fnv_mix(h, qcp.reconfiguring ? 1 : 0);
    h = fnv_mix(h, qcp.reconfig_epoch);
    h = fnv_mix(h, qcp.commit_id);
    h = fnv_mix(h, qcp.leader.has_value() ? *qcp.leader + 1 : 0);
    h = fnv_mix(h, qcp.stats.slots_polled);
    h = fnv_mix(h, qcp.stats.batches_shipped);
    h = fnv_mix(h, qcp.stats.bytes_shipped);
    h = fnv_mix(h, qcp.stats.rebases);
    h = fnv_mix(h, qcp.stats.corrupt_batches);
    h = fnv_mix(h, qcp.stats.fallbacks);
    h = fnv_mix(h, qcp.stats.reseeds);
    h = fnv_mix(h, qcp.stats.elections);
    h = fnv_mix(h, qcp.stats.member_failures);
    h = fnv_mix(h, qcp.stats.member_repairs);
    h = fnv_mix(h, qcp.stats.commit_advances);
    h = fnv_mix(h, qcp.stats.membership_changes);
  }

  h = fnv_mix(h, stats.frames_run);
  h = fnv_mix(h, stats.fault_events_applied);
  h = fnv_mix(h, stats.region_relocations);
  h = fnv_mix(h, stats.deadline_violations);
  h = fnv_mix(h, stats.heartbeats_lost);
  h = fnv_mix(h, stats.false_alarms);
  h = fnv_mix(h, stats.true_detections);
  h = fnv_mix(h, stats.journal_faults_injected);
  h = fnv_mix(h, stats.journal_truncations);
  h = fnv_mix(h, stats.lossy_recoveries);
  h = fnv_mix(h, stats.ship_slots_polled);
  h = fnv_mix(h, stats.ship_bytes_total);
  h = fnv_mix(h, stats.relocation_catchup_bytes);
  h = fnv_mix(h, stats.warm_relocations);
  h = fnv_mix(h, stats.full_copy_relocations);
  h = fnv_mix(h, stats.full_copy_bytes);
  h = fnv_mix(h, stats.full_copy_bytes_avoided);
  h = fnv_mix(h, stats.ship_reseeds);
  h = fnv_mix(h, stats.quorum_member_failures);
  h = fnv_mix(h, stats.quorum_member_repairs);
  h = fnv_mix(h, stats.quorum_losses);
  h = fnv_mix(h, stats.quorum_restores);

  h = fnv_mix(h, started ? 1 : 0);
  return h;
}

std::uint64_t SystemCheckpoint::spill_devices(storage::MappedArena& arena) {
  std::uint64_t bytes = 0;
  for (auto& [pid, p] : processors) {
    if (p.durability.has_value()) bytes += p.durability->spill_devices(arena);
  }
  for (auto& [pid, qcp] : quorum_channels) {
    for (auto& m : qcp.members) {
      if (m.replica.engine.has_value()) {
        bytes += m.replica.engine->spill_devices(arena);
      }
    }
  }
  return bytes;
}

SystemCheckpoint System::checkpoint() const {
  SystemCheckpoint cp;
  cp.frame = clock_.current_frame();
  cp.now = clock_.now();
  for (const ProcessorId p : group_.processor_ids()) {
    cp.processors.emplace(p, group_.processor(p).checkpoint_state());
  }
  cp.environment = environment_;
  cp.monitors = monitors_;
  cp.activity = activity_;
  cp.bank = bank_;
  cp.health = health_;
  cp.scram = scram_.checkpoint_state();
  for (const auto& [id, app] : apps_) {
    cp.apps.emplace(id, app->checkpoint_state());
  }
  cp.region_host = region_host_;
  cp.fault_plan = fault_plan_;
  cp.forced_overrun = forced_overrun_;
  cp.forced_fault = forced_fault_;
  cp.router = router_;
  cp.deadline_alarm_raised = deadline_alarm_raised_;
  cp.noise_rng_state = noise_rng_.state();
  cp.trace = trace_;
  for (const auto& [pid, channel] : quorum_channels_) {
    cp.quorum_channels.emplace(pid, channel->group.checkpoint_state());
  }
  cp.stats = stats_;
  cp.started = started_;
  return cp;
}

void System::restore(const SystemCheckpoint& cp) {
  require(cp.processors.size() == group_.size(),
          "checkpoint processor set does not match this system");
  require(cp.apps.size() == apps_.size(),
          "checkpoint application set does not match this system");
  require(cp.quorum_channels.size() == quorum_channels_.size(),
          "checkpoint quorum-cohort set does not match this system");
  require(cp.monitors.size() == monitors_.size(),
          "checkpoint monitor set does not match this system");
  require(cp.activity.has_value() && cp.trace.has_value(),
          "checkpoint is missing its platform monitors");

  clock_.restore(cp.frame, cp.now);
  for (const auto& [pid, pcp] : cp.processors) {
    require(group_.has_processor(pid), "checkpoint names unknown processor");
    group_.processor(pid).restore_state(pcp);
  }
  environment_ = cp.environment;
  monitors_ = cp.monitors;
  activity_ = *cp.activity;
  bank_ = cp.bank;
  health_ = cp.health;
  scram_.restore_state(cp.scram);
  for (const auto& [id, acp] : cp.apps) {
    const auto it = apps_.find(id);
    require(it != apps_.end(), "checkpoint names unknown application");
    it->second->restore_state(acp);
  }
  region_host_ = cp.region_host;
  fault_plan_ = cp.fault_plan;
  forced_overrun_ = cp.forced_overrun;
  forced_fault_ = cp.forced_fault;
  router_ = cp.router;
  deadline_alarm_raised_ = cp.deadline_alarm_raised;
  noise_rng_.set_state(cp.noise_rng_state);
  trace_ = *cp.trace;
  for (const auto& [pid, qcp] : cp.quorum_channels) {
    const auto it = quorum_channels_.find(pid);
    require(it != quorum_channels_.end(),
            "checkpoint names unknown quorum cohort");
    it->second->group.restore_state(qcp);
  }
  stats_ = cp.stats;
  started_ = cp.started;
}

std::uint64_t System::digest() const { return checkpoint().digest(); }

void System::publish_processor_factors(SimTime now) {
  for (const auto& [processor, factor] : processor_factors_) {
    const std::int64_t value = group_.processor(processor).running() ? 0 : 1;
    environment_.set(factor, value, now);
  }
}

void System::run_frame() {
  const Cycle cycle = clock_.current_frame();
  const SimTime t0 = clock_.now();

  if (!started_) {
    require(apps_.size() == spec_.apps().size(),
            "every declared application must be added before running");
    const Configuration& initial = spec_.config(spec_.initial_config());
    for (const AppDecl& decl : spec_.apps()) {
      apps_.at(decl.id)->force_spec(initial.spec_of(decl.id));
      std::optional<ProcessorId> host = initial.host_of(decl.id);
      if (!host.has_value()) {
        // Off initially: park the region on the first processor any
        // configuration would place the app on.
        for (const auto& [cid, config] : spec_.configs()) {
          if (const auto h = config.host_of(decl.id); h.has_value()) {
            host = h;
            break;
          }
        }
      }
      region_host_[decl.id] = host.value_or(scram_proc_);
    }
    group_.watch_all(activity_);
    for (const AppDecl& decl : spec_.apps()) {
      router_.endpoint(decl.id);
    }
    if (options_.record_storage_history) {
      for (const ProcessorId p : group_.processor_ids()) {
        if (group_.processor(p).running()) {
          group_.processor(p).stable().enable_history(true);
        }
      }
    }
    started_ = true;
  }

  // 1. Physical/environment models.
  for (const EnvHook& hook : env_hooks_) hook(environment_, cycle, t0);

  // 2. Scheduled fault injection.
  for (const sim::FaultEvent& event : fault_plan_.consume_until(t0)) {
    apply_fault_event(event, cycle, t0);
  }
  publish_processor_factors(t0);

  // 3. Heartbeats and processor-failure detection. The noise model may
  // suppress a running processor's heartbeat; the detection threshold is
  // what filters such glitches from real fail-stops.
  if (options_.heartbeat_loss_prob <= 0.0) {
    group_.heartbeat_all(activity_);
  } else {
    for (const ProcessorId id : group_.running_ids()) {
      if (noise_rng_.chance(options_.heartbeat_loss_prob)) {
        ++stats_.heartbeats_lost;
        continue;
      }
      activity_.heartbeat(id);
    }
  }
  activity_.end_of_frame(cycle, t0, bank_);

  // 4. Virtual monitor applications sample the environment.
  std::vector<env::EnvChangeSignal> env_signals;
  for (env::FactorMonitor& monitor : monitors_) {
    for (env::EnvChangeSignal& s : monitor.sample(environment_, cycle, t0)) {
      env_signals.push_back(s);
    }
  }

  // 4b. Frame-boundary message delivery (messages sent during the previous
  // frame arrive now; receivers on fail-stopped hosts lose theirs).
  router_.exchange(cycle, [this](AppId app) {
    return group_.processor(region_host_.at(app)).running();
  });

  // 4c. Runtime SP3 watchdog: an in-progress reconfiguration that has
  // already consumed its whole T bound is a deadline violation — raised
  // once as a timing signal so the SCRAM (and the operator) see it.
  if (scram_.reconfiguring() && !deadline_alarm_raised_) {
    const std::optional<Cycle> started = scram_.active_start_cycle();
    const std::optional<ConfigId> target = scram_.target_config();
    if (started.has_value() && target.has_value()) {
      const std::optional<Cycle> bound =
          spec_.transition_bound(scram_.current_config(), *target);
      if (bound.has_value() && cycle - *started + 1 > *bound) {
        deadline_alarm_raised_ = true;
        ++stats_.deadline_violations;
        log_warn("system", "cycle ", cycle,
                 ": reconfiguration exceeded its T bound (", *bound,
                 " frames)");
        failstop::TimingMonitor().report_overrun(
            AppId{}, cycle, t0, bank_,
            "reconfiguration deadline exceeded");
      }
    }
  }

  // 5. The SCRAM consumes this frame's signals. Classify processor-failure
  // signals against ground truth for detector-quality accounting.
  const std::vector<failstop::FailureSignal> hw_signals = bank_.drain();
  for (const failstop::FailureSignal& s : hw_signals) {
    if (s.kind != failstop::SignalKind::kProcessorFailure) continue;
    if (group_.processor(s.processor).running()) {
      ++stats_.false_alarms;
    } else {
      ++stats_.true_detections;
    }
  }
  FramePlan plan = scram_.begin_frame(cycle, t0, hw_signals, env_signals,
                                      environment_.state());
  if (plan.trigger_accepted) {
    for (const AppDecl& decl : spec_.apps()) {
      apps_.at(decl.id)->mark_interrupted();
    }
  }
  if (plan.retargeted) {
    for (const AppDecl& decl : spec_.apps()) {
      apps_.at(decl.id)->rewind_to_halted();
    }
  }

  // Record the configuration_status protocol in the SCRAM's stable storage.
  if (group_.processor(scram_proc_).running()) {
    storage::StableStorage& scram_stable =
        group_.processor(scram_proc_).stable();
    for (const AppDecl& decl : spec_.apps()) {
      const auto it = plan.directives.find(decl.id);
      const DirectiveKind kind =
          it == plan.directives.end() ? DirectiveKind::kNone : it->second.kind;
      scram_stable.write(scram_status_key_.at(decl.id),
                         directive_name(kind));
    }
  }

  // 6. Applications perform their unit of work for the frame. Processors
  // where a reconfiguration directive takes effect this frame are halt
  // boundaries: their frame commit must be durable before the new
  // configuration runs, whatever the group-commit sync policy buffers.
  std::map<AppId, bool> phase_done;
  std::vector<ProcessorId> halt_boundary_hosts;
  for (const AppDecl& decl : spec_.apps()) {
    ReconfigurableApp& application = *apps_.at(decl.id);
    Directive directive;
    if (const auto it = plan.directives.find(decl.id);
        it != plan.directives.end()) {
      directive = it->second;
    }

    const std::optional<ProcessorId> host =
        execution_host(decl.id, directive);
    if (directive.kind != DirectiveKind::kNone && host.has_value()) {
      halt_boundary_hosts.push_back(*host);
    }
    std::optional<StableRegion> region;
    if (host.has_value()) {
      relocate_region_if_needed(decl.id, *host, cycle);
      region.emplace(group_.processor(*host).stable(), app_prefix(decl.id));
    }

    ReconfigurableApp::Ctx ctx;
    ctx.cycle = cycle;
    ctx.now = t0;
    ctx.own = region.has_value() ? &*region : nullptr;
    ctx.peers = peer_reader_.get();
    ctx.mail = &router_.endpoint(decl.id);

    ReconfigurableApp::StepResult result =
        application.frame_step(ctx, directive);

    if (forced_fault_[decl.id]) {
      forced_fault_[decl.id] = false;
      result.ok = false;
      result.fault_detail = "injected software fault";
    }

    // Budget enforcement applies to normal AFTA frames.
    if (directive.kind == DirectiveKind::kNone &&
        application.reconf_state() == trace::ReconfState::kNormal &&
        application.current_spec().has_value()) {
      const FunctionalSpec& fs = spec_.spec(*application.current_spec());
      SimDuration consumed = result.consumed;
      if (forced_overrun_[decl.id]) {
        forced_overrun_[decl.id] = false;
        consumed = fs.budget_us + 100;
      }
      if (consumed > fs.budget_us) {
        health_.report_overrun(PartitionId{decl.id.value()}, decl.id, cycle,
                               t0, consumed, fs.budget_us, bank_);
      }
    }
    if (!result.ok) {
      health_.report_app_fault(PartitionId{decl.id.value()}, decl.id, cycle,
                               t0, result.fault_detail, bank_);
    }
    if (directive.kind != DirectiveKind::kNone) {
      phase_done[decl.id] = result.phase_done;
    }
  }

  // 7. The SCRAM collects completion reports; on completion, start signals.
  const FrameOutcome outcome = scram_.end_frame(cycle, phase_done);
  if (outcome.completed) {
    const Configuration& cfg = spec_.config(outcome.to);
    for (const AppDecl& decl : spec_.apps()) {
      apps_.at(decl.id)->start(cfg.spec_of(decl.id));
    }
    deadline_alarm_raised_ = false;
  }

  // 8. Frame-boundary commit and trace snapshot. The SCRAM's own processor
  // is a boundary too whenever it issued directives this frame — its
  // configuration_status records drive recovery decisions.
  if (!plan.directives.empty()) halt_boundary_hosts.push_back(scram_proc_);
  std::sort(halt_boundary_hosts.begin(), halt_boundary_hosts.end());
  halt_boundary_hosts.erase(
      std::unique(halt_boundary_hosts.begin(), halt_boundary_hosts.end()),
      halt_boundary_hosts.end());
  // While a reconfiguration is in flight (or directives were issued this
  // frame), adaptive sync policies drop to their floor watermark: a halt
  // mid-transition should lose as little committed work as possible, so the
  // engines trade throughput for a tight durable boundary until the SCRAM
  // reports completion. Static policies are unaffected.
  const bool reconfig_pressure =
      scram_.reconfiguring() || !plan.directives.empty();
  for (const ProcessorId p : group_.processor_ids()) {
    if (auto* engine = group_.processor(p).durability()) {
      engine->set_reconfig_pressure(reconfig_pressure);
    }
  }
  for (const ProcessorId p : group_.processor_ids()) {
    const bool force = std::binary_search(halt_boundary_hosts.begin(),
                                          halt_boundary_hosts.end(), p);
    group_.processor(p).commit_frame(cycle, force);
  }
  // 8b. Journal shipping: each cohort member gets its one TDMA shipping
  // slot per round, moving at most the slot's byte budget of freshly-synced
  // journal toward its warm standby.
  if (!quorum_channels_.empty()) pump_quorum_channels();
  if (options_.record_trace) {
    record_snapshot(cycle, t0 + options_.frame_length);
  }

  ++stats_.frames_run;
  clock_.advance_frame();
}

void System::record_snapshot(Cycle cycle, SimTime frame_end) {
  trace::SysState state;
  state.cycle = cycle;
  state.time = frame_end;
  state.svclvl = scram_.current_config();
  state.env = environment_.state();
  for (const AppDecl& decl : spec_.apps()) {
    const ReconfigurableApp& application = *apps_.at(decl.id);
    trace::AppSnapshot snap;
    snap.reconf_st = application.reconf_state();
    snap.spec = application.current_spec();
    snap.host_running =
        group_.processor(region_host_.at(decl.id)).running();
    snap.postcondition_ok = application.postcondition_ok();
    snap.transition_ok = application.transition_ok();
    snap.precondition_ok = application.precondition_ok();
    state.apps[decl.id] = snap;
  }
  trace_.append(std::move(state));
}

}  // namespace arfs::core
