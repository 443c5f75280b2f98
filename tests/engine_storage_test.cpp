// The storage engine's sync-policy edge cases: degenerate watermarks,
// adaptive clamp bounds, SCRAM pressure, forced boundary syncs, the hoisted
// decode scratch, the block cache, checkpoint round-trips of the adaptive
// controller state, and the adaptive policy's crash sweep held to its
// from-scratch oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "arfs/common/check.hpp"
#include "arfs/core/system.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/journal.hpp"
#include "arfs/storage/durable/snapshot.hpp"
#include "arfs/storage/durable/wire.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs {
namespace {

using storage::StableStorage;
using storage::durable::DurabilityEngine;
using storage::durable::DurableOptions;
using storage::durable::RecoveryReport;
using storage::durable::SyncMode;
using storage::durable::SyncPolicy;
using storage::durable::kAdaptiveFracBits;
using storage::durable::make_memory_engine;

/// Commits `n` frames of deterministic writes (same shape as the
/// durable_storage_test helper, so cross-suite behavior is comparable).
void run_commits(DurabilityEngine& engine, StableStorage& store, Cycle from,
                 Cycle n) {
  for (Cycle c = from; c < from + n; ++c) {
    store.write("counter", static_cast<std::int64_t>(c));
    store.write("key" + std::to_string(c % 3), 0.5 * static_cast<double>(c));
    engine.record_commit(store, c);
    store.commit(c);
    engine.after_commit(store);
  }
}

// --- adaptive-policy crash sweep ------------------------------------------

support::MissionFactory chain_factory(SyncPolicy policy) {
  return [policy] {
    auto spec =
        std::make_shared<core::ReconfigSpec>(support::make_chain_spec({}));
    core::SystemOptions options;
    options.durable_storage = true;
    options.durability.snapshot_every_epochs = 7;
    options.durability.sync = policy;
    auto system = std::make_unique<core::System>(*spec, options);
    for (const core::AppDecl& decl : spec->apps()) {
      system->add_app(
          std::make_unique<support::SimpleApp>(decl.id, decl.name));
    }
    support::CrashMission mission;
    mission.keepalive = spec;
    mission.system = std::move(system);
    return mission;
  };
}

support::CrashSweepOptions sweep_options(Cycle frames) {
  support::CrashSweepOptions options;
  options.frames = frames;
  options.victim = support::synthetic_processor(0);
  return options;
}

TEST(AdaptivePolicySweep, CheckpointedDigestMatchesFromScratch) {
  // Crash points forked from stride checkpoints inherit the adaptive
  // controller's checkpointed state; they must recover exactly what a
  // from-scratch replay of every crash point recovers. The watermark
  // starts low and has no frames ceiling, so it fires and retunes within
  // the mission: a restore that dropped the controller state would move
  // the durable epochs and with them the digest.
  const support::MissionFactory factory = chain_factory(SyncPolicy::adaptive(
      /*initial=*/128, /*min=*/64, /*max=*/4096, /*frames_ceiling=*/0));
  support::CrashSweepOptions options = sweep_options(24);
  const support::CrashSweepReport checkpointed =
      support::run_crash_sweep(factory, options);
  options.checkpointing = false;
  const support::CrashSweepReport scratch =
      support::run_crash_sweep(factory, options);
  EXPECT_GT(checkpointed.checkpoints_taken, 0u);
  EXPECT_EQ(checkpointed.mismatches, 0u);
  EXPECT_EQ(scratch.mismatches, 0u);
  EXPECT_EQ(checkpointed.digest(), scratch.digest());
}

// --- watermark edge cases -------------------------------------------------

TEST(SyncPolicyEdge, ZeroByteWatermarkSyncsEveryCommit) {
  DurableOptions options;
  options.sync = SyncPolicy::bytes(0);
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 8);
  // A zero watermark is reached by any nonzero lag: every commit syncs,
  // exactly like kEveryCommit.
  EXPECT_EQ(engine->stats().syncs, 8u);
  EXPECT_EQ(engine->stats().lag_bytes, 0u);
  EXPECT_EQ(engine->stats().lag_frames, 0u);
  EXPECT_EQ(engine->stats().last_durable_epoch, 8u);
}

TEST(SyncPolicyEdge, OneByteWatermarkSyncsEveryCommit) {
  DurableOptions options;
  options.sync = SyncPolicy::bytes(1);
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 8);
  EXPECT_EQ(engine->stats().syncs, 8u);
  EXPECT_EQ(engine->stats().max_lag_frames, 1u);
  EXPECT_EQ(engine->stats().lag_bytes, 0u);
}

TEST(SyncPolicyEdge, AdaptiveInitialWatermarkClampsIntoBounds) {
  // Initial below the floor clamps up; initial above the ceiling clamps
  // down. The clamp happens at construction, before any commit.
  DurableOptions low;
  low.sync = SyncPolicy::adaptive(/*initial=*/1, /*min=*/4096, /*max=*/8192);
  auto low_engine = make_memory_engine(low);
  EXPECT_EQ(low_engine->adaptive_watermark_fp(),
            std::uint64_t{4096} << kAdaptiveFracBits);

  DurableOptions high;
  high.sync = SyncPolicy::adaptive(/*initial=*/std::uint64_t{1} << 30,
                                   /*min=*/4096, /*max=*/8192);
  auto high_engine = make_memory_engine(high);
  EXPECT_EQ(high_engine->adaptive_watermark_fp(),
            std::uint64_t{8192} << kAdaptiveFracBits);

  // Bounds the clamp cannot honour are contract violations: an inverted
  // range, and a ceiling whose fixed-point image overflows 64 bits.
  DurableOptions inverted;
  inverted.sync = SyncPolicy::adaptive(/*initial=*/4096, /*min=*/8192,
                                       /*max=*/4096);
  EXPECT_THROW((void)make_memory_engine(inverted), ContractViolation);

  DurableOptions overflow;
  overflow.sync = SyncPolicy::adaptive(/*initial=*/4096, /*min=*/512,
                                       /*max=*/std::uint64_t{1} << 56);
  EXPECT_THROW((void)make_memory_engine(overflow), ContractViolation);
  overflow.sync.adaptive_max_bytes = (std::uint64_t{1} << 56) - 1;
  EXPECT_NO_THROW((void)make_memory_engine(overflow));
}

TEST(SyncPolicyEdge, AdaptiveClimbsAndClampsAtMaxOnSmallCommits) {
  // Every sync under this workload flushes far less than the raise
  // threshold, so the controller climbs until the ceiling clamps it —
  // and never overshoots.
  DurableOptions options;
  options.sync = SyncPolicy::adaptive(/*initial=*/1024, /*min=*/512,
                                      /*max=*/2048, /*frames_ceiling=*/0);
  auto engine = make_memory_engine(options);
  StableStorage store;
  const std::uint64_t hi = std::uint64_t{2048} << kAdaptiveFracBits;
  for (Cycle c = 0; c < 512; ++c) {
    run_commits(*engine, store, c, 1);
    EXPECT_LE(engine->adaptive_watermark_fp(), hi);
  }
  EXPECT_EQ(engine->adaptive_watermark_fp(), hi);
  EXPECT_GT(engine->stats().adaptive_raises, 0u);
  EXPECT_EQ(engine->stats().adaptive_drops, 0u);
  EXPECT_EQ(engine->stats().adaptive_watermark_bytes, 2048u);
}

TEST(SyncPolicyEdge, AdaptiveDropsAndClampsAtMinOnHugeCommits) {
  // Each commit carries ~320 KiB, over the drop threshold in one sync, so
  // the controller backs off 12.5% per sync until the floor clamps it.
  DurableOptions options;
  options.sync = SyncPolicy::adaptive(/*initial=*/256 * 1024, /*min=*/512,
                                      /*max=*/256 * 1024,
                                      /*frames_ceiling=*/0);
  auto engine = make_memory_engine(options);
  StableStorage store;
  const std::string blob(320 * 1024, 'x');
  const std::uint64_t lo = std::uint64_t{512} << kAdaptiveFracBits;
  for (Cycle c = 0; c < 64; ++c) {
    store.write("blob", blob + static_cast<char>('a' + (c % 26)));
    engine->record_commit(store, c);
    store.commit(c);
    engine->after_commit(store);
    EXPECT_GE(engine->adaptive_watermark_fp(), lo);
  }
  EXPECT_EQ(engine->adaptive_watermark_fp(), lo);
  EXPECT_GT(engine->stats().adaptive_drops, 0u);
  EXPECT_EQ(engine->stats().adaptive_watermark_bytes, 512u);
}

TEST(SyncPolicyEdge, ForcedSyncFlushesLagUnderEveryEngine) {
  DurableOptions options;
  options.sync = SyncPolicy::frames(100);  // never reached by 3 commits
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 3);
  ASSERT_EQ(engine->stats().lag_frames, 3u);

  // The halt-boundary sync: the whole buffered tail becomes durable now.
  EXPECT_TRUE(engine->sync_now());
  EXPECT_EQ(engine->stats().forced_syncs, 1u);
  EXPECT_EQ(engine->stats().lag_frames, 0u);
  EXPECT_EQ(engine->stats().last_durable_epoch, 3u);

  // With zero lag it is a no-op, not another device sync.
  EXPECT_TRUE(engine->sync_now());
  EXPECT_EQ(engine->stats().forced_syncs, 1u);
}

TEST(SyncPolicyEdge, ReconfigBoundarySyncsUnderEveryEngine) {
  // System-level: the chain mission reconfigures; every halt boundary must
  // force the victim's lag to zero.
  support::CrashMission mission = chain_factory(SyncPolicy::frames(64))();
  mission.system->run(48);
  DurabilityEngine* engine = mission.system->processors()
                                 .processor(support::synthetic_processor(0))
                                 .durability();
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->stats().forced_syncs, 0u);
}

// --- SCRAM pressure -------------------------------------------------------

TEST(ReconfigPressure, DropsEffectiveWatermarkOnlyInAdaptiveMode) {
  // Adaptive: pressure drops the bar to the floor, so a commit far below
  // the tuned watermark syncs anyway (and is counted as a pressure sync).
  DurableOptions adaptive;
  adaptive.sync = SyncPolicy::adaptive(/*initial=*/64 * 1024, /*min=*/16,
                                       /*max=*/256 * 1024,
                                       /*frames_ceiling=*/0);
  auto pressured = make_memory_engine(adaptive);
  pressured->set_reconfig_pressure(true);
  EXPECT_EQ(pressured->stats().pressure_engagements, 1u);
  StableStorage store;
  run_commits(*pressured, store, 0, 1);
  EXPECT_EQ(pressured->stats().lag_bytes, 0u);
  EXPECT_GT(pressured->stats().pressure_syncs, 0u);

  // Re-asserting pressure is not a new engagement; releasing and
  // re-engaging is.
  pressured->set_reconfig_pressure(true);
  EXPECT_EQ(pressured->stats().pressure_engagements, 1u);
  pressured->set_reconfig_pressure(false);
  pressured->set_reconfig_pressure(true);
  EXPECT_EQ(pressured->stats().pressure_engagements, 2u);

  // Static watermark: pressure must change nothing — the same commit stays
  // in the buffered tail.
  DurableOptions fixed;
  fixed.sync = SyncPolicy::bytes(64 * 1024);
  auto unaffected = make_memory_engine(fixed);
  unaffected->set_reconfig_pressure(true);
  StableStorage other;
  run_commits(*unaffected, other, 0, 1);
  EXPECT_EQ(unaffected->stats().syncs, 0u);
  EXPECT_GT(unaffected->stats().lag_bytes, 0u);
  EXPECT_EQ(unaffected->stats().pressure_syncs, 0u);
}

// --- recovery decode scratch (hoisted buffer) -----------------------------

TEST(RecoveryDecode, ReplayReusesHoistedDecodeBuffer) {
  auto engine = make_memory_engine();  // no snapshot cadence: full replay
  StableStorage store;
  run_commits(*engine, store, 0, 32);
  const std::uint64_t before = store.fingerprint();

  engine->crash();
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_EQ(recovered.fingerprint(), before);
  EXPECT_EQ(report.records_applied, 32u);
  // The first decode sizes the scratch; every later record of this replay
  // reuses it instead of allocating.
  EXPECT_GE(engine->stats().decode_buffer_reuses, 31u);
}

// --- block cache ----------------------------------------------------------

TEST(BlockCache, SecondRecoveryIsServedFromCacheWithIdenticalResult) {
  DurableOptions options;
  options.block_cache_bytes = 1u << 20;
  options.snapshot_every_epochs = 5;
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 16);
  const std::uint64_t before = store.fingerprint();

  engine->crash();
  StableStorage cold;
  const RecoveryReport first = engine->recover_into(cold);
  EXPECT_EQ(cold.fingerprint(), before);
  const std::uint64_t misses = engine->stats().block_cache_misses;
  EXPECT_GT(misses, 0u);

  // Devices unchanged since the first scan: the repeat recovery replays
  // from decoded memory — hits, no new misses, same store.
  StableStorage warm;
  const RecoveryReport second = engine->recover_into(warm);
  EXPECT_GT(engine->stats().block_cache_hits, 0u);
  EXPECT_EQ(engine->stats().block_cache_misses, misses);
  EXPECT_EQ(warm.fingerprint(), before);
  EXPECT_EQ(second.last_epoch, first.last_epoch);
  EXPECT_GT(engine->stats().block_cache_bytes, 0u);
}

// --- adaptive determinism and checkpointing -------------------------------

TEST(AdaptiveDeterminism, IdenticalHistoriesProduceBitIdenticalControllers) {
  DurableOptions options;
  options.sync = SyncPolicy::adaptive();
  options.snapshot_every_epochs = 5;
  auto a = make_memory_engine(options);
  auto b = make_memory_engine(options);
  StableStorage sa;
  StableStorage sb;
  run_commits(*a, sa, 0, 24);
  run_commits(*b, sb, 0, 24);

  // The controller is pure integer state over the commit history: two
  // identical runs agree on every tuning step and every byte.
  EXPECT_EQ(a->adaptive_watermark_fp(), b->adaptive_watermark_fp());
  EXPECT_EQ(a->stats().syncs, b->stats().syncs);
  EXPECT_EQ(a->stats().adaptive_raises, b->stats().adaptive_raises);
  EXPECT_EQ(a->stats().adaptive_drops, b->stats().adaptive_drops);

  a->crash();
  b->crash();
  StableStorage ra;
  StableStorage rb;
  (void)a->recover_into(ra);
  (void)b->recover_into(rb);
  EXPECT_EQ(ra.fingerprint(), rb.fingerprint());
}

TEST(EngineCheckpointing, AdaptiveControllerStateRoundTrips) {
  DurableOptions options;
  options.sync = SyncPolicy::adaptive();
  options.snapshot_every_epochs = 4;
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 12);
  engine->set_reconfig_pressure(true);

  const auto cp = engine->checkpoint_state();
  EXPECT_EQ(cp.adaptive_watermark_fp, engine->adaptive_watermark_fp());
  EXPECT_TRUE(cp.reconfig_pressure);
  const std::uint64_t fp_at_cp = engine->adaptive_watermark_fp();
  const std::uint64_t fingerprint_at_cp = store.fingerprint();

  // Diverge: release pressure, run more history, let the controller move.
  engine->set_reconfig_pressure(false);
  run_commits(*engine, store, 12, 24);

  // Restore rewinds the controller along with the devices.
  engine->restore_state(cp);
  EXPECT_EQ(engine->adaptive_watermark_fp(), fp_at_cp);
  EXPECT_TRUE(engine->reconfig_pressure());

  engine->crash();
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_EQ(recovered.fingerprint(), fingerprint_at_cp);
  EXPECT_EQ(report.last_epoch, 12u);
}

// --- snapshot GC skim -----------------------------------------------------

using storage::Value;
using storage::durable::MemoryBackend;
using storage::durable::SnapshotScan;

using SnapshotEntries = std::vector<std::tuple<std::string, Value, Cycle>>;

/// One entry of every value type, varied by epoch.
SnapshotEntries image_entries(std::uint64_t epoch) {
  return {{"a/count", Value{static_cast<std::int64_t>(epoch)}, epoch},
          {"a/flag", Value{epoch % 2 == 0}, epoch},
          {"b/name", Value{"mode-" + std::to_string(epoch)}, 1},
          {"b/ratio", Value{0.25 * static_cast<double>(epoch)}, epoch - 1}};
}

/// A device holding `images` clean images at epochs 1, 2, ….
MemoryBackend clean_device(std::size_t images) {
  MemoryBackend device;
  for (std::uint64_t e = 1; e <= images; ++e) {
    EXPECT_TRUE(storage::durable::append_snapshot(device, e, image_entries(e)));
  }
  return device;
}

std::vector<std::uint8_t> bytes_of(const MemoryBackend& device) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(device.size()));
  EXPECT_EQ(device.read(0, bytes.data(), bytes.size()), bytes.size());
  return bytes;
}

MemoryBackend device_of(const std::vector<std::uint8_t>& bytes) {
  MemoryBackend device;
  device.append(bytes.data(), bytes.size());
  return device;
}

/// Appends `payload` in a valid envelope (correct length and CRC).
void append_enveloped(MemoryBackend& device,
                      const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> envelope;
  storage::durable::put_u32(envelope,
                            static_cast<std::uint32_t>(payload.size()));
  storage::durable::put_u32(
      envelope, storage::durable::crc32(payload.data(), payload.size()));
  envelope.insert(envelope.end(), payload.begin(), payload.end());
  device.append(envelope.data(), envelope.size());
}

/// The GC's keep/rewrite decision reads only the image layout, so the skim
/// must report exactly the layout the full scan reports.
void expect_skim_matches_scan(const MemoryBackend& device,
                              const std::string& label,
                              std::size_t expected_images) {
  const SnapshotScan scan = storage::durable::scan_snapshots(device);
  const SnapshotScan skim = storage::durable::skim_snapshots(device);
  EXPECT_EQ(scan.images, expected_images) << label;
  EXPECT_EQ(skim.images, scan.images) << label;
  EXPECT_EQ(skim.image_offsets, scan.image_offsets) << label;
  EXPECT_EQ(skim.valid_bytes, scan.valid_bytes) << label;
  EXPECT_EQ(skim.truncated, scan.truncated) << label;
  EXPECT_EQ(skim.header_ok, scan.header_ok) << label;
  EXPECT_EQ(skim.any_valid, scan.any_valid) << label;
  EXPECT_EQ(skim.reason, scan.reason) << label;
  EXPECT_TRUE(skim.last.entries.empty()) << label;
}

TEST(SnapshotSkim, MatchesFullScanOnCleanTornFlippedAndMalformedDevices) {
  for (std::size_t n = 0; n <= 3; ++n) {
    expect_skim_matches_scan(clean_device(n), "clean " + std::to_string(n),
                             n);
  }

  // Torn tails: the third image's envelope, then its payload, cut short.
  const MemoryBackend three = clean_device(3);
  const std::uint64_t third =
      storage::durable::scan_snapshots(three).image_offsets[2];
  for (const std::uint64_t keep : {third + 5, third + 8 + 11}) {
    MemoryBackend torn = clean_device(3);
    torn.truncate(keep);
    expect_skim_matches_scan(torn, "torn at " + std::to_string(keep), 2);
  }

  // A flipped bit in the second image's payload fails its CRC.
  std::vector<std::uint8_t> flipped = bytes_of(three);
  flipped[static_cast<std::size_t>(
              storage::durable::scan_snapshots(three).image_offsets[1]) +
          8 + 3] ^= 0x10;
  expect_skim_matches_scan(device_of(flipped), "bit flip", 1);

  // CRC-valid payloads that do not parse as an image, after one good one.
  std::vector<std::vector<std::uint8_t>> malformed;
  {
    std::vector<std::uint8_t> p;  // trailing byte after a whole entry
    storage::durable::put_u64(p, 2);
    storage::durable::put_u64(p, 1);
    storage::durable::put_string(p, "k");
    storage::durable::put_value(p, Value{true});
    storage::durable::put_u64(p, 2);
    storage::durable::put_u8(p, 0);
    malformed.push_back(p);
  }
  {
    std::vector<std::uint8_t> p;  // unknown value tag
    storage::durable::put_u64(p, 2);
    storage::durable::put_u64(p, 1);
    storage::durable::put_string(p, "k");
    storage::durable::put_u8(p, 7);
    storage::durable::put_u64(p, 2);
    malformed.push_back(p);
  }
  {
    std::vector<std::uint8_t> p;  // string longer than the payload
    storage::durable::put_u64(p, 2);
    storage::durable::put_u64(p, 1);
    storage::durable::put_u32(p, 1000);
    storage::durable::put_u8(p, 'k');
    malformed.push_back(p);
  }
  {
    std::vector<std::uint8_t> p;  // entry count far beyond the payload
    storage::durable::put_u64(p, 2);
    storage::durable::put_u64(p, std::uint64_t{1} << 62);
    storage::durable::put_string(p, "k");
    storage::durable::put_value(p, Value{std::string("v")});
    storage::durable::put_u64(p, 2);
    malformed.push_back(p);
  }
  for (std::size_t i = 0; i < malformed.size(); ++i) {
    MemoryBackend device = clean_device(1);
    append_enveloped(device, malformed[i]);
    expect_skim_matches_scan(device, "malformed " + std::to_string(i), 1);
  }

  // An implausible length prefix, and a bad device header.
  MemoryBackend implausible = clean_device(2);
  std::vector<std::uint8_t> huge;
  storage::durable::put_u32(huge, storage::durable::kMaxPayload + 1);
  storage::durable::put_u32(huge, 0);
  implausible.append(huge.data(), huge.size());
  expect_skim_matches_scan(implausible, "implausible length", 2);
  std::vector<std::uint8_t> bad_header = bytes_of(three);
  bad_header[7] = 'X';
  expect_skim_matches_scan(device_of(bad_header), "bad header", 0);
}

}  // namespace
}  // namespace arfs
