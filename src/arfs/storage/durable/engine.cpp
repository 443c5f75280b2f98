#include "arfs/storage/durable/engine.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "arfs/common/check.hpp"

namespace arfs::storage::durable {

std::string to_string(SyncMode mode) {
  switch (mode) {
    case SyncMode::kEveryCommit:     return "every-commit";
    case SyncMode::kBytesWatermark:  return "bytes-watermark";
    case SyncMode::kFramesWatermark: return "frames-watermark";
    case SyncMode::kHybrid:          return "hybrid";
    case SyncMode::kAdaptive:        return "adaptive";
  }
  return "unknown";
}

RecoveryReport recover_from_scans(const SnapshotScan& snap,
                                  const ScanResult& scan,
                                  StableStorage& out) {
  require(out.committed_count() == 0,
          "recovery target must have no committed state");
  RecoveryReport report;

  if (snap.any_valid) {
    report.used_snapshot = true;
    report.snapshot_epoch = snap.last.epoch;
    out.restore_batch(snap.last.entries);
  }

  std::uint64_t last_epoch = report.snapshot_epoch;
  for (const JournalRecord& record : scan.records) {
    if (record.epoch <= report.snapshot_epoch) {
      ++report.records_skipped;
      continue;
    }
    out.restore_batch(record.entries, record.cycle);
    last_epoch = record.epoch;
    ++report.records_applied;
  }
  out.set_commit_epochs(last_epoch);
  report.last_epoch = last_epoch;
  report.journal_truncated = scan.truncated;
  report.valid_bytes = scan.valid_bytes;
  if (scan.truncated) report.note = scan.reason;
  if (snap.truncated) {
    report.note += report.note.empty() ? "" : "; ";
    report.note += "snapshot device: " + snap.reason;
  }
  return report;
}

RecoveryReport recover_store(const JournalBackend& snapshots,
                             const JournalBackend& journal,
                             StableStorage& out) {
  return recover_from_scans(scan_snapshots(snapshots), scan_journal(journal),
                            out);
}

namespace {

/// GC keeps this many newest images: the current one, plus its predecessor
/// so recovery can fall back when the current image's sync failed and a
/// crash tore it (the journal is uncompacted in exactly that case).
constexpr std::size_t kGcKeepImages = 2;

/// FNV-1a over a device's logical bytes, streamed through a small stack
/// buffer — the scan cache's content address costs one linear pass with no
/// allocation, against a full decode's CRC walk plus per-record parsing.
std::uint64_t fingerprint_device(const JournalBackend& device,
                                 std::uint64_t size) {
  std::uint64_t h = 1469598103934665603ULL;
  std::uint8_t buf[4096];
  std::uint64_t off = 0;
  while (off < size) {
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(sizeof buf, size - off));
    const std::size_t got = device.read(off, buf, want);
    if (got == 0) break;
    for (std::size_t i = 0; i < got; ++i) {
      h = (h ^ buf[i]) * 1099511628211ULL;
    }
    off += got;
  }
  return h;
}

}  // namespace

DurabilityEngine::DurabilityEngine(std::unique_ptr<JournalBackend> journal,
                                   std::unique_ptr<JournalBackend> snapshots,
                                   DurableOptions options)
    : journal_(std::move(journal)), snapshots_(std::move(snapshots)),
      options_(std::move(options)) {
  require(journal_ != nullptr && snapshots_ != nullptr,
          "storage engine needs both devices");
  const SyncPolicy& p = options_.sync;
  require(p.adaptive_min_bytes <= p.adaptive_max_bytes &&
              p.adaptive_max_bytes <=
                  (~std::uint64_t{0} >> kAdaptiveFracBits),
          "adaptive watermark bounds need min <= max < 2^56");
  if (options_.block_cache_bytes > 0) {
    scan_cache_ = std::make_unique<BlockCache<ScanResult>>(
        static_cast<std::size_t>(options_.block_cache_bytes));
  }
  adaptive_watermark_fp_ =
      std::clamp(p.bytes_watermark, p.adaptive_min_bytes,
                 p.adaptive_max_bytes)
      << kAdaptiveFracBits;
}

void DurabilityEngine::note_ship(std::uint64_t bytes, std::uint64_t lag,
                                 std::uint64_t horizon) {
  if (bytes > 0) {
    ++stats_.ship_batches;
    stats_.shipped_bytes += bytes;
  }
  stats_.ship_lag_bytes = lag;
  stats_.max_ship_lag_bytes = std::max(stats_.max_ship_lag_bytes, lag);
  ship_horizon_ = std::max(ship_horizon_, horizon);
}

void DurabilityEngine::set_reconfig_pressure(bool on) {
  if (on && !reconfig_pressure_) ++stats_.pressure_engagements;
  reconfig_pressure_ = on;
}

std::uint64_t DurabilityEngine::adaptive_effective_bytes() const {
  return reconfig_pressure_ ? options_.sync.adaptive_min_bytes
                            : (adaptive_watermark_fp_ >> kAdaptiveFracBits);
}

bool DurabilityEngine::watermark_reached() const {
  const SyncPolicy& policy = options_.sync;
  switch (policy.mode) {
    case SyncMode::kEveryCommit:
      return true;
    case SyncMode::kBytesWatermark:
      return stats_.lag_bytes >= policy.bytes_watermark;
    case SyncMode::kFramesWatermark:
      return stats_.lag_frames >= policy.frames_watermark;
    case SyncMode::kHybrid:
      return stats_.lag_bytes >= policy.bytes_watermark ||
             stats_.lag_frames >= policy.frames_watermark;
    case SyncMode::kAdaptive:
      return stats_.lag_bytes >= adaptive_effective_bytes() ||
             (policy.frames_watermark > 0 &&
              stats_.lag_frames >= policy.frames_watermark);
  }
  return true;
}

void DurabilityEngine::tune_adaptive(std::uint64_t flushed_bytes) {
  // Pure fixed-point arithmetic over engine-local state: same commit
  // history in, same watermark trajectory out, on any thread/shard count.
  const SyncPolicy& p = options_.sync;
  const std::uint64_t lo = p.adaptive_min_bytes << kAdaptiveFracBits;
  const std::uint64_t hi = p.adaptive_max_bytes << kAdaptiveFracBits;
  const std::uint64_t target = kAdaptiveSyncCostBytes * kAdaptiveGain;
  std::uint64_t fp = std::clamp(adaptive_watermark_fp_, lo, hi);
  if (flushed_bytes < target) {
    // The sync amortized too few bytes: its fixed cost dominates. Raise the
    // watermark 25% (plus one byte so a zero floor still moves) — the climb
    // out of a cold start has to outpace the workload, so raising is
    // deliberately steeper than the 12.5% back-off below.
    ++stats_.adaptive_raises;
    fp = std::min(hi, fp + fp / 4 + (std::uint64_t{1} << kAdaptiveFracBits));
  } else if (flushed_bytes > 4 * target) {
    // Overshoot: the lag a crash could lose grew past the band. Back off.
    ++stats_.adaptive_drops;
    fp = std::max(lo, fp - fp / 8);
  }
  adaptive_watermark_fp_ = fp;
  stats_.adaptive_watermark_bytes = fp >> kAdaptiveFracBits;
}

bool DurabilityEngine::do_sync() {
  const std::uint64_t flushed = stats_.lag_bytes;
  ++stats_.syncs;
  if (!journal_->sync()) {
    // The tail stays buffered, so the lag persists; a later sync (or the
    // next watermark) retries it.
    ++stats_.sync_failures;
    return false;
  }
  stats_.lag_frames = 0;
  stats_.lag_bytes = 0;
  stats_.last_durable_epoch =
      std::max(stats_.last_durable_epoch, appended_epoch_);
  if (options_.sync.mode == SyncMode::kAdaptive) tune_adaptive(flushed);
  return true;
}

bool DurabilityEngine::sync_now() {
  if (stats_.lag_frames == 0 && stats_.lag_bytes == 0) return true;
  ++stats_.forced_syncs;
  return do_sync();
}

void DurabilityEngine::record_commit(const StableStorage& store, Cycle cycle) {
  if (!ensure_header(*journal_)) {
    // A media fault (or foreign content) destroyed the device header. The
    // scanner trusts nothing after a bad magic, so appending here could
    // never make this commit durable — count the fault and suspend
    // journaling. recover_into() truncates the device, after which the
    // header is rewritten and journaling resumes.
    ++stats_.header_faults;
    return;
  }
  scratch_.clear();
  encode_commit(scratch_, interner_, key_ids_, store.commit_epochs() + 1,
                cycle, store.pending());
  journal_->append(scratch_.data(), scratch_.size());
  stats_.bytes_appended += scratch_.size();
  ++stats_.commits_journaled;
  appended_epoch_ = store.commit_epochs() + 1;
  ++stats_.lag_frames;
  stats_.lag_bytes += scratch_.size();
  stats_.max_lag_frames = std::max(stats_.max_lag_frames, stats_.lag_frames);
  stats_.max_lag_bytes = std::max(stats_.max_lag_bytes, stats_.lag_bytes);
  if (watermark_reached()) {
    if (options_.sync.mode == SyncMode::kAdaptive && reconfig_pressure_ &&
        stats_.lag_bytes < (adaptive_watermark_fp_ >> kAdaptiveFracBits)) {
      // Only the lowered bar made this sync fire.
      ++stats_.pressure_syncs;
    }
    (void)do_sync();
  }
}

void DurabilityEngine::after_commit(const StableStorage& store) {
  if (options_.snapshot_every_epochs == 0) return;
  if (store.commit_epochs() == 0 ||
      store.commit_epochs() % options_.snapshot_every_epochs != 0) {
    return;
  }
  take_snapshot(store);
}

bool DurabilityEngine::take_snapshot(const StableStorage& store) {
  // Snapshot boundary: flush the journal lag first, so durability at the
  // boundary never depends on whether the image itself succeeds.
  (void)sync_now();
  if (!persist_snapshot(store)) {
    ++stats_.snapshot_failures;
    return false;
  }
  ++stats_.snapshots_taken;
  stats_.last_durable_epoch =
      std::max(stats_.last_durable_epoch, store.commit_epochs());
  // Reclaim superseded state while the journal still covers everything
  // since the previous image — a failed rewrite then loses nothing.
  gc_snapshots();
  // Compaction starts a new journal generation for shippers. Retain the
  // outgoing generation's synced bytes so replicas that lag this compaction
  // can finish it and rebase; if the boundary sync above failed, un-shipped
  // records went into the image without ever becoming shippable, so a
  // rebase would silently lose them — disable it and force a full copy.
  rebase_ok_ = stats_.lag_bytes == 0;
  retained_tail_.clear();
  if (rebase_ok_) {
    const std::uint64_t synced = journal_->synced_size();
    if (synced > kHeaderSize) {
      retained_tail_.resize(static_cast<std::size_t>(synced - kHeaderSize));
      const std::size_t got = journal_->read(kHeaderSize,
                                             retained_tail_.data(),
                                             retained_tail_.size());
      if (got != retained_tail_.size()) {
        retained_tail_.clear();
        rebase_ok_ = false;
      }
    }
  }
  rebase_epoch_ = store.commit_epochs();
  ++journal_generation_;
  ship_horizon_ = kHeaderSize;
  // The image covers every epoch the journal holds; compact it. Torn-tail
  // safety is preserved because the image is already durably synced. The
  // buffered tail (if a pre-image sync failed) is covered by the image too,
  // so the lag is settled along with the key dictionary, which restarts
  // empty in the fresh journal generation.
  journal_->truncate(kHeaderSize);
  interner_.reset();
  stats_.lag_frames = 0;
  stats_.lag_bytes = 0;
  appended_epoch_ = store.commit_epochs();
  return true;
}

bool DurabilityEngine::persist_snapshot(const StableStorage& store) {
  if (!append_snapshot(*snapshots_, store.commit_epochs(),
                       store.committed_entries())) {
    return false;
  }
  return snapshots_->sync();
}

void DurabilityEngine::gc_snapshots() {
  const SnapshotScan snap = skim_snapshots(*snapshots_);
  if (snap.truncated || snap.images <= kGcKeepImages) return;
  const std::uint64_t keep_from =
      snap.image_offsets[snap.images - kGcKeepImages];
  // Copy the whole image tail out so a failed rewrite can be rolled back.
  std::vector<std::uint8_t> tail(
      static_cast<std::size_t>(snap.valid_bytes - kHeaderSize));
  if (snapshots_->read(kHeaderSize, tail.data(), tail.size()) != tail.size()) {
    return;  // device refused the read; leave it alone
  }
  const auto keep_offset = static_cast<std::size_t>(keep_from - kHeaderSize);
  snapshots_->truncate(kHeaderSize);
  snapshots_->append(tail.data() + keep_offset, tail.size() - keep_offset);
  if (snapshots_->sync()) {
    ++stats_.snapshot_gc_runs;
    stats_.snapshot_bytes_reclaimed += keep_offset;
    return;
  }
  // Rewrite could not be made durable: restore the original device content
  // so the durable image set is no worse than before the GC attempt.
  ++stats_.snapshot_failures;
  snapshots_->truncate(kHeaderSize);
  snapshots_->append(tail.data(), tail.size());
  (void)snapshots_->sync();
}

void DurabilityEngine::crash() {
  journal_->crash();
  snapshots_->crash();
  ++stats_.crashes;
}

ScanResult DurabilityEngine::scan_journal_cached() {
  if (scan_cache_ == nullptr) {
    ScanStats ss;
    ScanResult scan = scan_journal(*journal_, decode_scratch_, &ss);
    stats_.decode_buffer_reuses += ss.payload_reuses;
    return scan;
  }
  const std::uint64_t size = journal_->size();
  const BlockCache<ScanResult>::Key key{size,
                                        fingerprint_device(*journal_, size)};
  if (const ScanResult* hit = scan_cache_->find(key)) {
    ++stats_.block_cache_hits;
    return *hit;  // decoded records straight from memory; no re-decode
  }
  ++stats_.block_cache_misses;
  ScanStats ss;
  ScanResult scan = scan_journal(*journal_, decode_scratch_, &ss);
  stats_.decode_buffer_reuses += ss.payload_reuses;
  stats_.block_cache_evictions +=
      scan_cache_->insert(key, scan, static_cast<std::size_t>(size) + 256);
  stats_.block_cache_bytes = scan_cache_->charge();
  return scan;
}

RecoveryReport DurabilityEngine::recover_into(StableStorage& out) {
  out.reset_committed();
  const SnapshotScan snap = scan_snapshots(*snapshots_);
  const ScanResult scan = scan_journal_cached();
  RecoveryReport report = recover_from_scans(snap, scan, out);
  // Discard the untrusted tails so appends resume after the last good
  // record — the journal analogue of halting at the last completed
  // instruction.
  journal_->truncate(report.valid_bytes);
  if (report.valid_bytes < ship_horizon_) {
    // The truncation destroyed bytes a shipper may already have served
    // (bit flip or torn salvage inside the shipped range): replica cursors
    // into this generation no longer describe the journal. Start a new
    // generation with no retained window — stale cursors must full-copy.
    ++journal_generation_;
    rebase_ok_ = false;
    retained_tail_.clear();
    ship_horizon_ = kHeaderSize;
  } else {
    ship_horizon_ = std::max<std::uint64_t>(
        kHeaderSize, std::min(ship_horizon_, report.valid_bytes));
  }
  if (snap.truncated) snapshots_->truncate(snap.valid_bytes);
  // The journal now ends exactly where the scan stopped trusting it, so the
  // scan's dictionary is the writer's dictionary.
  interner_.adopt(scan.dict);
  stats_.lag_frames = 0;
  stats_.lag_bytes = 0;
  stats_.last_durable_epoch = report.last_epoch;
  appended_epoch_ = report.last_epoch;
  ++stats_.recoveries;
  return report;
}

bool DurabilityEngine::has_state() const {
  return journal_->size() > kHeaderSize || snapshots_->size() > kHeaderSize;
}

EngineCheckpoint DurabilityEngine::checkpoint_state() const {
  EngineCheckpoint cp;
  cp.journal = journal_->fork();
  cp.snapshots = snapshots_->fork();
  require(cp.journal != nullptr && cp.snapshots != nullptr,
          "checkpoint requires forkable journal devices");
  cp.stats = stats_;
  cp.interner = interner_;
  cp.appended_epoch = appended_epoch_;
  cp.journal_generation = journal_generation_;
  cp.retained_tail = retained_tail_;
  cp.rebase_ok = rebase_ok_;
  cp.rebase_epoch = rebase_epoch_;
  cp.ship_horizon = ship_horizon_;
  cp.adaptive_watermark_fp = adaptive_watermark_fp_;
  cp.reconfig_pressure = reconfig_pressure_;
  return cp;
}

std::uint64_t EngineCheckpoint::spill_devices(storage::MappedArena& arena) {
  std::uint64_t bytes = 0;
  for (JournalBackend* device : {journal.get(), snapshots.get()}) {
    if (auto* mem = dynamic_cast<MemoryBackend*>(device)) {
      bytes += mem->spill(arena);
    }
  }
  return bytes;
}

void DurabilityEngine::restore_state(const EngineCheckpoint& cp) {
  journal_ = cp.journal->fork();
  snapshots_ = cp.snapshots->fork();
  ensure(journal_ != nullptr && snapshots_ != nullptr,
         "checkpointed journal devices must stay forkable");
  stats_ = cp.stats;
  interner_ = cp.interner;
  appended_epoch_ = cp.appended_epoch;
  journal_generation_ = cp.journal_generation;
  retained_tail_ = cp.retained_tail;
  rebase_ok_ = cp.rebase_ok;
  rebase_epoch_ = cp.rebase_epoch;
  ship_horizon_ = cp.ship_horizon;
  adaptive_watermark_fp_ = cp.adaptive_watermark_fp;
  reconfig_pressure_ = cp.reconfig_pressure;
  scratch_.clear();
  decode_scratch_.clear();
  // The scan cache deliberately survives a restore: its entries are
  // content-addressed, so a restored mission that re-recovers an identical
  // journal image hits them — results are bit-identical either way, only
  // the hit counters differ, and stats are never digested.
}

std::unique_ptr<DurabilityEngine> make_memory_engine(DurableOptions options) {
  return std::make_unique<DurabilityEngine>(std::make_unique<MemoryBackend>(),
                                            std::make_unique<MemoryBackend>(),
                                            std::move(options));
}

}  // namespace arfs::storage::durable
