#include "arfs/storage/durable/wal_snapshot.hpp"

#include <utility>
#include <vector>

namespace arfs::storage::durable {

namespace {

/// GC keeps this many newest images: the current one, plus its predecessor
/// so recovery can fall back when the current image's sync failed and a
/// crash tore it (the journal is uncompacted in exactly that case).
constexpr std::size_t kGcKeepImages = 2;

}  // namespace

WalSnapshotEngine::WalSnapshotEngine(std::unique_ptr<JournalBackend> journal,
                                     std::unique_ptr<JournalBackend> snapshots,
                                     DurableOptions options)
    : StorageEngine(std::move(journal), std::move(snapshots),
                    std::move(options), /*default_cache_bytes=*/0) {}

bool WalSnapshotEngine::persist_state(const StableStorage& store) {
  if (!append_snapshot(*snapshots_, store.commit_epochs(),
                       store.committed_entries())) {
    return false;
  }
  return snapshots_->sync();
}

SnapshotScan WalSnapshotEngine::scan_state() {
  return scan_snapshots(*snapshots_);
}

void WalSnapshotEngine::gc_state() {
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

}  // namespace arfs::storage::durable
