// Snapshots of the committed store.
//
// The snapshot device is itself an append-only journal of full images
// (magic "ARFSSNP1", then CRC-guarded records in the journal envelope):
//
//   payload: u64 epoch, u64 n, n × { string key, tagged value,
//                                    u64 committed_at }
//
// Appending a fresh image rather than rewriting in place means a crash in
// the middle of snapshotting leaves the *previous* image intact — recovery
// simply uses the last image that survives its CRC and falls back to pure
// journal replay when none does. After an image is durably synced the
// write-ahead journal is compacted, so steady-state recovery cost is one
// image plus the commits since it.
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "arfs/common/types.hpp"
#include "arfs/storage/durable/backend.hpp"
#include "arfs/storage/value.hpp"

namespace arfs::storage::durable {

inline constexpr std::uint8_t kSnapshotMagic[8] = {'A', 'R', 'F', 'S',
                                                   'S', 'N', 'P', '1'};

/// One decoded snapshot image.
struct SnapshotImage {
  std::uint64_t epoch = 0;  ///< Commit epoch the image captures.
  /// (key, value, committed_at) for every committed entry, sorted by key.
  std::vector<std::tuple<std::string, Value, Cycle>> entries;
  std::uint64_t offset = 0;
};

struct SnapshotScan {
  bool header_ok = false;
  bool any_valid = false;
  SnapshotImage last;            ///< Meaningful only when any_valid.
  std::size_t images = 0;        ///< Count of valid images found.
  /// Envelope byte offset of each valid image, in device order. The GC uses
  /// these to find where the keep-set starts without re-parsing payloads.
  std::vector<std::uint64_t> image_offsets;
  std::uint64_t valid_bytes = 0; ///< End of the last valid image.
  bool truncated = false;        ///< Torn/corrupt tail after the images.
  std::string reason;
};

/// Appends (but does not sync) a full image of `entries` at `epoch`.
/// Writes the device header first when the device is empty. Returns false
/// when an existing header does not match.
bool append_snapshot(JournalBackend& backend, std::uint64_t epoch,
                     const std::vector<std::tuple<std::string, Value, Cycle>>&
                         entries);

/// Scans the device for the last valid image. Malformed content is reported,
/// never fatal.
[[nodiscard]] SnapshotScan scan_snapshots(const JournalBackend& backend);

/// The same validation as scan_snapshots — envelope, length, CRC and
/// payload structure of every image, so `images`, `image_offsets`,
/// `valid_bytes`, `truncated` and `reason` agree with it — but no image is
/// decoded: `last` stays empty and `any_valid` reports only whether an image
/// was found. For callers that need the image layout, not the entries
/// (snapshot GC).
[[nodiscard]] SnapshotScan skim_snapshots(const JournalBackend& backend);

}  // namespace arfs::storage::durable
