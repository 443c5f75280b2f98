// System: the complete architecture of paper Figure 1, assembled.
//
// Owns the computing platform (fail-stop processors + activity monitoring),
// the environment with its virtual monitor applications, the SCRAM on its
// own fail-stop processor, the reconfigurable applications, and the trace
// recorder. Each call to run_frame() executes one synchronous real-time
// frame end to end:
//
//   1. environment hooks advance physical models (e.g. the electrical
//      system) and publish factor values;
//   2. scheduled fault-plan events are applied (processor fail-stop,
//      repairs, environment changes, forced timing/software faults);
//   3. running processors heartbeat; the activity monitor raises processor-
//      failure signals after its detection threshold;
//   4. virtual factor monitors sample the environment and raise change
//      signals;
//   5. the SCRAM consumes the frame's signals and issues per-application
//      configuration_status directives (Table 1);
//   6. every application performs its one unit of work for the frame —
//      a normal AFTA or one reconfiguration stage — with budget enforcement
//      feeding the health monitor;
//   7. the SCRAM collects stage-completion reports and, when the last stage
//      finishes, starts the target configuration;
//   8. all processors commit stable storage and the end-of-frame system
//      state is appended to the trace.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arfs/bus/schedule.hpp"
#include "arfs/common/ids.hpp"
#include "arfs/common/rng.hpp"
#include "arfs/common/types.hpp"
#include "arfs/core/app.hpp"
#include "arfs/core/messaging.hpp"
#include "arfs/core/reconfig_spec.hpp"
#include "arfs/core/scram.hpp"
#include "arfs/env/environment.hpp"
#include "arfs/env/factor.hpp"
#include "arfs/failstop/detector.hpp"
#include "arfs/failstop/group.hpp"
#include "arfs/rtos/health.hpp"
#include "arfs/sim/clock.hpp"
#include "arfs/sim/fault_plan.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/quorum.hpp"
#include "arfs/storage/durable/shipping.hpp"
#include "arfs/trace/recorder.hpp"

namespace arfs::core {

struct SystemOptions {
  SimDuration frame_length = 10'000;  ///< 10 ms frames by default.
  /// Frames of silence before the activity monitor reports a processor
  /// failure (detection latency).
  Cycle detection_threshold = 1;
  /// Probability that a *running* processor's heartbeat is lost in a given
  /// frame (bus glitches, scheduling jitter). With a threshold of 1 frame,
  /// every lost heartbeat is a false failure signal; higher thresholds
  /// trade detection latency for false-alarm immunity.
  double heartbeat_loss_prob = 0.0;
  /// Seed for the platform's noise processes (heartbeat loss).
  std::uint64_t noise_seed = 9001;
  ScramOptions scram;
  /// Retain full stable-storage commit history (post-mortem debugging).
  bool record_storage_history = false;
  /// Back every processor's stable storage with a durability engine
  /// (write-ahead journal + snapshots on deterministic in-memory devices).
  /// Fail-stop halts then crash the devices and reconcile the pollable
  /// store with what recovery reads back, and kJournal* fault-plan events
  /// become meaningful.
  bool durable_storage = false;
  /// Engine policy used when durable_storage is on.
  storage::durable::DurableOptions durability;
  /// Ship every durable processor's journal to a warm-standby replica
  /// cohort (storage::durable::quorum::QuorumGroup) over dedicated TDMA
  /// shipping slots, so region relocations move only the un-shipped journal
  /// tail instead of the full encoded state. Requires durable_storage.
  bool journal_shipping = false;
  /// Per-frame byte budget of each cohort member's shipping slot (the
  /// schedulable replication bandwidth; partial batches resume next frame).
  std::uint32_t ship_slot_bytes = 4096;
  /// Members of each processor's replica cohort: max(1, quorum_replicas),
  /// each fed over its own TDMA shipping slot, the durability boundary being
  /// the majority-acknowledged commit id. 0 and 1 both mean the single warm
  /// standby (a one-member cohort). Nonzero requires journal_shipping.
  std::uint32_t quorum_replicas = 0;
  /// Record the per-frame sys_trace (needed for get_reconfigs and the
  /// SP1-SP4 checkers). The trace grows by one state per frame and every
  /// checkpoint()/restore() copies it whole, so disable it wherever nothing
  /// reads it: unbounded benchmark runs, the crash-sweep probes, whose
  /// verdicts read only stable storage, and the fleet samples, which keep
  /// only their digests (both via System::set_record_trace). The trace
  /// observes the mission and is not part of its state: digest() does not
  /// mix it, so a run digests the same with recording on or off.
  bool record_trace = true;
};

struct SystemStats {
  std::uint64_t frames_run = 0;
  std::uint64_t fault_events_applied = 0;
  std::uint64_t region_relocations = 0;
  /// Reconfigurations that exceeded their T bound while still in progress
  /// (runtime SP3 watchdog; each counted once).
  std::uint64_t deadline_violations = 0;
  /// Heartbeats suppressed by the noise model.
  std::uint64_t heartbeats_lost = 0;
  /// Processor-failure signals raised for processors that were running
  /// (false alarms from the activity monitor under heartbeat noise).
  std::uint64_t false_alarms = 0;
  /// Processor-failure signals for genuinely failed processors.
  std::uint64_t true_detections = 0;
  /// Journal I/O faults armed on durable devices (sync-fail, torn write,
  /// bit flip). Events targeting non-durable processors are not counted.
  std::uint64_t journal_faults_injected = 0;
  /// Recoveries whose journal had a torn or corrupt tail truncated.
  std::uint64_t journal_truncations = 0;
  /// Fail-stop recoveries that rolled committed state back (truncated tail
  /// or discarded group-commit lag); each raises a kLossyRecovery signal.
  std::uint64_t lossy_recoveries = 0;

  // --- journal shipping (journal_shipping option) ---
  /// Shipping-slot polls across all cohort members and frames.
  std::uint64_t ship_slots_polled = 0;
  /// Journal bytes put on the bus by shipping: per-frame slots plus
  /// relocation catch-ups.
  std::uint64_t ship_bytes_total = 0;
  /// Bytes of that total moved during relocation catch-ups (the un-shipped
  /// tail a warm start still had to transfer).
  std::uint64_t relocation_catchup_bytes = 0;
  /// Region relocations served from a warm standby replica.
  std::uint64_t warm_relocations = 0;
  /// Region relocations that moved the source's full encoded state (no
  /// shipping channel, or no cohort member mirrored the source's commit
  /// boundary).
  std::uint64_t full_copy_relocations = 0;
  /// Encoded bytes those full copies moved.
  std::uint64_t full_copy_bytes = 0;
  /// Encoded region bytes warm relocations did NOT move (the savings
  /// headline: what a full copy of the relocated region would have cost).
  std::uint64_t full_copy_bytes_avoided = 0;
  /// Standby replicas reseeded from a full-state copy (lost cursors:
  /// lagged past the retained generation, lossy recovery, media fault).
  std::uint64_t ship_reseeds = 0;

  // --- quorum replication (quorum_replicas option) ---
  /// Cohort member fail-stops / repairs applied (fault plan or API).
  std::uint64_t quorum_member_failures = 0;
  std::uint64_t quorum_member_repairs = 0;
  /// Live-majority transitions: losses raised kQuorumLost toward the SCRAM,
  /// restorations raised kQuorumDurable.
  std::uint64_t quorum_losses = 0;
  std::uint64_t quorum_restores = 0;

  bool operator==(const SystemStats&) const = default;
};

/// Frozen image of every piece of mutable state a mission touches: clock,
/// processors (volatile + committed stores, forked durability devices),
/// environment and monitors, detection, SCRAM, applications (including
/// their opaque domain words), region placement, fault-plan cursor,
/// messaging, shipping replica cohorts, trace, and statistics. The
/// configuration-time constants (spec, options, schedules, hooks, cached
/// key strings) are deliberately absent: a checkpoint is restored into a
/// System built by the same factory. Move-only — device forks are owned —
/// but restorable any number of times (restore re-forks, never consumes).
struct SystemCheckpoint {
  Cycle frame = 0;
  SimTime now = 0;
  std::map<ProcessorId, failstop::Processor::Checkpoint> processors;
  env::Environment environment;
  std::vector<env::FactorMonitor> monitors;
  std::optional<failstop::ActivityMonitor> activity;
  failstop::DetectorBank bank;
  rtos::HealthMonitor health;
  Scram::Checkpoint scram;
  std::map<AppId, ReconfigurableApp::Checkpoint> apps;
  std::map<AppId, ProcessorId> region_host;
  sim::FaultPlan fault_plan;  ///< Copy carries the consumption cursor.
  std::map<AppId, bool> forced_overrun;
  std::map<AppId, bool> forced_fault;
  MessageRouter router;
  bool deadline_alarm_raised = false;
  std::uint64_t noise_rng_state = 0;
  std::optional<trace::SysTrace> trace;
  std::map<ProcessorId, storage::durable::quorum::QuorumGroup::Checkpoint>
      quorum_channels;
  SystemStats stats;
  bool started = false;

  /// Order-sensitive FNV-1a digest over the checkpointed state, durable
  /// device byte streams included. Two checkpoints of the same factory's
  /// system with equal digests describe bit-identical mission state. The
  /// trace is not mixed (stats.frames_run already counts its frames), so
  /// recording on and off give the same digest.
  [[nodiscard]] std::uint64_t digest() const;

  /// Spills every forked durable-device byte image this checkpoint holds
  /// (processor engines and replica-cohort members) into
  /// CRC-guarded regions of `arena` — the byte mass of a durable mission's
  /// checkpoint, freed from the heap until the checkpoint is next restored
  /// (devices hydrate transparently). Returns bytes spilled. The arena must
  /// outlive the checkpoint or its next restore.
  std::uint64_t spill_devices(storage::MappedArena& arena);
};

class System {
 public:
  /// `spec` must outlive the System and must validate(). Processors are
  /// created for every placement any configuration mentions, plus one
  /// dedicated processor for the SCRAM.
  explicit System(const ReconfigSpec& spec, SystemOptions options = {});
  ~System();  // out of line: SystemPeerReader is incomplete here

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Registers the implementation of a declared application. Every declared
  /// application must be added before the first frame runs.
  void add_app(std::unique_ptr<ReconfigurableApp> app);

  /// Installs the deterministic fault schedule.
  void set_fault_plan(sim::FaultPlan plan);

  /// Auto-publishes a processor's status (0 = running, 1 = failed) into the
  /// given environmental factor — the section 6.3 unification of component
  /// failures with environment changes. The factor must be declared in the
  /// spec.
  void bind_processor_factor(ProcessorId processor, FactorId factor);

  /// Hook called at the start of every frame, before fault injection; used
  /// by scenarios to advance physical models that feed the environment.
  using EnvHook = std::function<void(env::Environment&, Cycle, SimTime)>;
  void add_env_hook(EnvHook hook);

  /// Runs `frames` frames.
  void run(Cycle frames);
  /// Runs a single frame.
  void run_frame();

  /// Sets an environmental factor immediately (programmatic trigger).
  void set_factor(FactorId factor, std::int64_t value);

  /// Applies SystemOptions::record_trace after construction. Off stops
  /// appending and keeps what was already recorded. Turning it back on
  /// requires the trace to hold every frame run so far: trace cycles are
  /// contiguous from 0, so the next frame's append fails otherwise.
  void set_record_trace(bool on) { options_.record_trace = on; }

  // --- observers ---
  [[nodiscard]] const trace::SysTrace& trace() const { return trace_; }
  [[nodiscard]] const Scram& scram() const { return scram_; }
  [[nodiscard]] env::Environment& environment() { return environment_; }
  [[nodiscard]] failstop::ProcessorGroup& processors() { return group_; }
  [[nodiscard]] const sim::VirtualClock& clock() const { return clock_; }
  [[nodiscard]] ReconfigurableApp& app(AppId id);
  [[nodiscard]] const SystemStats& stats() const { return stats_; }
  [[nodiscard]] const rtos::HealthMonitor& health() const { return health_; }
  [[nodiscard]] ProcessorId scram_processor() const { return scram_proc_; }

  /// Processor currently holding `app`'s stable region.
  [[nodiscard]] ProcessorId region_host(AppId app) const;

  /// Message-passing statistics (paper section 3 communication).
  [[nodiscard]] const MessagingStats& messaging() const {
    return router_.stats();
  }

  // --- journal shipping (journal_shipping option) ---

  /// True when `p`'s journal ships to a replica cohort (every durable
  /// processor's does when the option is on).
  [[nodiscard]] bool has_ship_channel(ProcessorId p) const;
  /// The elected shipper-leader's replica of `p`'s durable store.
  /// Preconditions: has_ship_channel(p), at least one live member.
  [[nodiscard]] const storage::durable::ShippedReplica& ship_replica(
      ProcessorId p) const;
  struct ShipCatchUp {
    std::size_t bytes = 0;  ///< Journal bytes moved by the catch-up.
    bool reseeded = false;  ///< Cursor was lost; replica was full-copied.
  };
  /// Drains `p`'s remaining shippable tail into every live cohort member
  /// now (the same catch-up a relocation performs: the source's boundary is
  /// synced first), reseeding any member whose cursor was lost. `bytes` is
  /// the total moved; `reseeded` is true when any member reseeded.
  /// Precondition: has_ship_channel(p).
  ShipCatchUp ship_catch_up(ProcessorId p);

  // --- quorum replication (quorum_replicas option) ---

  /// The cohort shadowing `p`'s durable store.
  /// Precondition: has_ship_channel(p).
  [[nodiscard]] const storage::durable::quorum::QuorumGroup& quorum_group(
      ProcessorId p) const;
  /// Fail-stops / repairs cohort member `member` of `p`'s quorum group.
  /// A transition that costs (restores) the live majority raises a
  /// kQuorumLost (kQuorumDurable) signal toward the SCRAM.
  /// Preconditions: has_ship_channel(p), member < the cohort's member count.
  void fail_quorum_member(ProcessorId p, std::uint32_t member);
  void repair_quorum_member(ProcessorId p, std::uint32_t member);

  // --- whole-system checkpoint/restore ---

  /// Freezes the system's complete mutable state. Precondition: when
  /// durable storage is on, every device is forkable (in-memory engines).
  [[nodiscard]] SystemCheckpoint checkpoint() const;
  /// Rewinds this system to `cp` in place. Precondition: this System was
  /// built by the same factory as the one checkpointed (same spec, options,
  /// applications, and shipping channels) — key sets must match exactly.
  void restore(const SystemCheckpoint& cp);
  /// Digest of the live mutable state; equals checkpoint().digest().
  [[nodiscard]] std::uint64_t digest() const;

 private:
  class SystemPeerReader;
  struct QuorumChannel;

  void apply_fault_event(const sim::FaultEvent& event, Cycle cycle,
                         SimTime now);
  /// Cached "a<id>/" stable-storage prefix for a declared application —
  /// these strings are rebuilt-per-read hot-path constants otherwise.
  [[nodiscard]] const std::string& app_prefix(AppId app) const;
  /// Execution host for `app` this frame given its directive; nullopt when
  /// the application cannot execute anywhere.
  [[nodiscard]] std::optional<ProcessorId> execution_host(
      AppId app, const Directive& directive) const;
  void relocate_region_if_needed(AppId app, ProcessorId to, Cycle cycle);
  void record_snapshot(Cycle cycle, SimTime frame_end);
  void publish_processor_factors(SimTime now);
  /// One shipping slot per (cohort, member), in schedule order (end of
  /// every frame).
  void pump_quorum_channels();
  /// Full-copy reseed of one cohort member whose cursor was lost.
  void reseed_quorum_member(ProcessorId source, QuorumChannel& channel,
                            std::uint32_t member);

  const ReconfigSpec& spec_;
  SystemOptions options_;
  sim::VirtualClock clock_;
  failstop::ProcessorGroup group_;
  ProcessorId scram_proc_{};
  env::Environment environment_;
  std::vector<env::FactorMonitor> monitors_;
  failstop::ActivityMonitor activity_;
  failstop::DetectorBank bank_;
  rtos::HealthMonitor health_;
  Scram scram_;
  std::map<AppId, std::unique_ptr<ReconfigurableApp>> apps_;
  std::map<AppId, ProcessorId> region_host_;
  /// Per-app key strings, built once at construction (hot path: every peer
  /// read, region bind, and SCRAM status write each frame).
  std::map<AppId, std::string> app_prefix_;
  std::map<AppId, std::string> scram_status_key_;
  std::map<ProcessorId, FactorId> processor_factors_;
  sim::FaultPlan fault_plan_;
  std::vector<EnvHook> env_hooks_;
  std::map<AppId, bool> forced_overrun_;
  std::map<AppId, bool> forced_fault_;
  MessageRouter router_;
  bool deadline_alarm_raised_ = false;
  Rng noise_rng_{9001};
  trace::SysTrace trace_;
  std::unique_ptr<SystemPeerReader> peer_reader_;
  /// Replica cohorts (journal_shipping), keyed by source processor. Each
  /// member owns one shipping slot per round (= per frame) in the schedule.
  std::map<ProcessorId, std::unique_ptr<QuorumChannel>> quorum_channels_;
  bus::TdmaSchedule ship_schedule_;
  SystemStats stats_;
  bool started_ = false;
};

}  // namespace arfs::core
