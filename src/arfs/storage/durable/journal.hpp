// Write-ahead journal of stable-storage commits.
//
// Layout on the backend:
//
//   [8-byte magic "ARFSWAL2"]
//   repeated records:  [u32 payload_len][u32 crc32(payload)][payload]
//   payload:           u8 kind, then
//     kind 0 (commit):      u64 epoch, u64 cycle, u32 n,
//                           n × { varint key_id, tagged value }
//     kind 1 (dictionary):  varint first_id, varint count, count × string
//
// Keys are interned: the first commit that mentions a key is preceded by a
// dictionary record assigning it the next id, and from then on the key ships
// as a 1–2 byte varint instead of a length-prefixed string. Dictionary
// records are ordinary journal records — CRC-guarded, scanned in order, and
// replayed on recovery — so the id space is exactly reconstructible from the
// valid prefix. The dictionary resets whenever the journal is compacted
// (truncated back to its header after a snapshot).
//
// One commit record per StableStorage::commit — the journal is the disk
// image of the paper's "sequence of completed instructions". Scanning stops
// at the first record that is short (torn write), fails its CRC
// (corruption), references an unknown key id, or breaks epoch monotonicity;
// everything after that offset is untrusted, which is the device-level
// analogue of the fail-stop rule that a halted processor's state is the last
// *successfully completed* step, never a partial one.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arfs/common/types.hpp"
#include "arfs/storage/durable/backend.hpp"
#include "arfs/storage/value.hpp"

namespace arfs::storage::durable {

inline constexpr std::uint8_t kJournalMagic[8] = {'A', 'R', 'F', 'S',
                                                  'W', 'A', 'L', '2'};
inline constexpr std::uint64_t kHeaderSize = 8;
/// Sanity cap on one record's payload, so a corrupted length prefix cannot
/// demand a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxPayload = 1u << 28;

enum : std::uint8_t { kRecordCommit = 0, kRecordDict = 1 };

/// One decoded commit record. Key ids are resolved back to strings while
/// scanning, so consumers never see the interned form.
struct JournalRecord {
  std::uint64_t epoch = 0;  ///< StableStorage commit epoch (1-based).
  Cycle cycle = 0;          ///< Frame the commit was stamped with.
  std::vector<std::pair<std::string, Value>> entries;
  /// Interned key id of each entry, parallel to `entries` (what actually
  /// sits on the device; surfaced for arfsctl's journal dump).
  std::vector<std::uint32_t> entry_ids;
  std::uint64_t offset = 0;  ///< Byte offset of the record envelope.
};

/// One dictionary record seen while scanning (arfsctl's journal dump).
struct DictRecordInfo {
  std::uint64_t offset = 0;    ///< Byte offset of the record envelope.
  std::uint32_t first_id = 0;  ///< First id the record assigns.
  std::uint32_t count = 0;     ///< Keys announced.
};

/// Result of scanning a journal device end to end.
struct ScanResult {
  bool header_ok = false;
  std::vector<JournalRecord> records;   ///< Valid commit prefix, in order.
  std::vector<std::string> dict;        ///< Interned keys, indexed by id.
  std::vector<DictRecordInfo> dict_records;  ///< Dictionary records seen.
  std::uint64_t valid_bytes = 0;        ///< End of the last valid record.
  bool truncated = false;               ///< A torn/corrupt tail was found.
  std::string reason;                   ///< Why scanning stopped early.
};

/// The writer's side of the key dictionary: maps keys to stable varint ids,
/// in insertion order. An engine keeps one per journal and resets it when
/// the journal is compacted; recovery rebuilds it from ScanResult::dict.
class KeyInterner {
 public:
  /// Returns the id for `key`, assigning the next free id on first sight.
  /// Newly assigned keys are staged in fresh() until take_fresh().
  std::uint32_t intern(const std::string& key);

  /// Keys interned since the last take_fresh(), in id order. encode_commit
  /// flushes these into a dictionary record ahead of the commit record.
  [[nodiscard]] const std::vector<std::string>& fresh() const {
    return fresh_;
  }
  void take_fresh() { fresh_.clear(); }

  /// Rebuilds the dictionary from a scanned journal (recovery path).
  void adopt(const std::vector<std::string>& keys);
  void reset();

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  /// The whole dictionary in id order (full-copy reseeds ship it as part of
  /// the transferred state).
  [[nodiscard]] const std::vector<std::string>& entries() const {
    return keys_;
  }

 private:
  std::vector<std::string> keys_;  ///< id -> key.
  /// Sorted (key, id) pairs for O(log n) lookup without a hash map.
  std::vector<std::pair<std::string, std::uint32_t>> index_;
  std::vector<std::string> fresh_;
};

/// Appends the journal magic when the device is empty. Returns false when an
/// existing header does not match (foreign or damaged file).
bool ensure_header(JournalBackend& backend);

/// Encodes one commit into `out`: a dictionary record first when `dict` has
/// unflushed fresh keys, then the commit record itself. `out` is appended
/// to, not cleared, and no temporary buffers are allocated — payloads are
/// encoded in place and their envelopes back-patched. `ids` is the caller's
/// reused scratch for the entries' key ids (each key is interned once).
void encode_commit(std::vector<std::uint8_t>& out, KeyInterner& dict,
                   std::vector<std::uint32_t>& ids, std::uint64_t epoch,
                   Cycle cycle,
                   const std::vector<std::pair<std::string, Value>>& entries);

/// Allocation accounting of one scan's payload reads (the decode mirror of
/// the encode path's reused scratch buffer).
struct ScanStats {
  /// Payload reads served inside the scratch buffer's existing capacity.
  std::uint64_t payload_reuses = 0;
  /// Payload reads that had to grow the scratch buffer.
  std::uint64_t payload_allocs = 0;
};

/// Scans the whole device, collecting the valid record prefix. Never throws
/// on malformed content — damage is reported, not fatal.
[[nodiscard]] ScanResult scan_journal(const JournalBackend& backend);

/// Same scan, decoding payloads through a caller-owned scratch buffer so a
/// recovery loop (or an engine replaying many crash points) allocates the
/// payload buffer once instead of once per scan. `stats`, when given,
/// receives the reuse/allocation counts the engine surfaces as
/// DurabilityStats::decode_buffer_reuses.
[[nodiscard]] ScanResult scan_journal(const JournalBackend& backend,
                                      std::vector<std::uint8_t>& scratch,
                                      ScanStats* stats = nullptr);

/// Renders a record for arfsctl's `journal dump`.
[[nodiscard]] std::string to_string(const JournalRecord& record);

}  // namespace arfs::storage::durable
