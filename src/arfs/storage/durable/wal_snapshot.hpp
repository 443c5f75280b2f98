// WalSnapshotEngine: the original journal + full-image snapshot engine.
//
// The state device is an append-only log of full committed-store images
// (magic "ARFSSNP1"; snapshot.hpp): persist_state appends one image and
// syncs it, gc_state keeps the newest two images (the current one plus its
// predecessor as the torn-image fallback; it locates them with
// skim_snapshots, which validates without decoding), and scan_state is a
// plain scan_snapshots. Everything else — journal, sync policy, adaptive
// watermarks, shipping, checkpointing, recovery — is the shared
// StorageEngine base.
#pragma once

#include <memory>

#include "arfs/storage/durable/engine.hpp"

namespace arfs::storage::durable {

class WalSnapshotEngine : public StorageEngine {
 public:
  WalSnapshotEngine(std::unique_ptr<JournalBackend> journal,
                    std::unique_ptr<JournalBackend> snapshots,
                    DurableOptions options = {});

  [[nodiscard]] EngineKind kind() const override {
    return EngineKind::kWalSnapshot;
  }

 protected:
  bool persist_state(const StableStorage& store) override;
  void gc_state() override;
  SnapshotScan scan_state() override;
};

}  // namespace arfs::storage::durable
