#include "arfs/storage/durable/snapshot.hpp"

#include <algorithm>
#include <cstring>

#include "arfs/storage/durable/journal.hpp"
#include "arfs/storage/durable/wire.hpp"

namespace arfs::storage::durable {

bool append_snapshot(JournalBackend& backend, std::uint64_t epoch,
                     const std::vector<std::tuple<std::string, Value, Cycle>>&
                         entries) {
  if (backend.size() == 0) {
    backend.append(kSnapshotMagic, sizeof kSnapshotMagic);
  } else {
    std::uint8_t magic[8] = {};
    if (backend.read(0, magic, sizeof magic) != sizeof magic ||
        std::memcmp(magic, kSnapshotMagic, sizeof magic) != 0) {
      return false;
    }
  }
  std::vector<std::uint8_t> payload;
  put_u64(payload, epoch);
  put_u64(payload, entries.size());
  for (const auto& [key, value, committed_at] : entries) {
    put_string(payload, key);
    put_value(payload, value);
    put_u64(payload, committed_at);
  }
  std::vector<std::uint8_t> envelope;
  put_u32(envelope, static_cast<std::uint32_t>(payload.size()));
  put_u32(envelope, crc32(payload.data(), payload.size()));
  envelope.insert(envelope.end(), payload.begin(), payload.end());
  backend.append(envelope.data(), envelope.size());
  return true;
}

namespace {

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

/// Smallest encoded entry: u32 key length, bool tag + byte, u64
/// committed_at. Bounds the entry count a CRC-valid payload can claim.
constexpr std::size_t kMinEntryBytes = 4 + 2 + 8;

/// The image walk behind scan_snapshots (`decode`: every image's entries
/// are built, the last one kept) and skim_snapshots (entries are skipped).
/// Both validate each image identically.
SnapshotScan walk_snapshots(const JournalBackend& backend, bool decode) {
  SnapshotScan result;
  const std::uint64_t total = backend.size();
  if (total == 0) {
    result.header_ok = true;  // empty device: no snapshot yet, not damage
    return result;
  }
  std::uint8_t magic[8] = {};
  if (backend.read(0, magic, sizeof magic) != sizeof magic ||
      std::memcmp(magic, kSnapshotMagic, sizeof magic) != 0) {
    result.reason = "bad or short snapshot header";
    result.truncated = true;
    return result;
  }
  result.header_ok = true;
  result.valid_bytes = kHeaderSize;

  std::uint64_t offset = kHeaderSize;
  std::vector<std::uint8_t> payload;
  while (offset < total) {
    std::uint8_t envelope[8] = {};
    if (backend.read(offset, envelope, sizeof envelope) != sizeof envelope) {
      result.truncated = true;
      result.reason = "torn snapshot envelope";
      break;
    }
    const std::uint32_t len = get_u32(envelope);
    const std::uint32_t crc = get_u32(envelope + 4);
    if (len > kMaxPayload) {
      result.truncated = true;
      result.reason = "implausible snapshot length";
      break;
    }
    payload.resize(len);
    if (backend.read(offset + 8, payload.data(), len) != len) {
      result.truncated = true;
      result.reason = "torn snapshot payload";
      break;
    }
    if (crc32(payload.data(), len) != crc) {
      result.truncated = true;
      result.reason = "snapshot CRC mismatch";
      break;
    }
    ByteReader reader(payload.data(), len);
    SnapshotImage image;
    image.offset = offset;
    image.epoch = reader.u64();
    const std::uint64_t n = reader.u64();
    if (decode) {
      image.entries.reserve(static_cast<std::size_t>(
          std::min<std::uint64_t>(n, len / kMinEntryBytes)));
    }
    for (std::uint64_t i = 0; i < n && reader.ok(); ++i) {
      if (!decode) {
        reader.skip_string();
        reader.skip_value();
        (void)reader.u64();
        continue;
      }
      std::string key = reader.string();
      Value value = reader.value();
      const Cycle committed_at = reader.u64();
      image.entries.emplace_back(std::move(key), std::move(value),
                                 committed_at);
    }
    if (!reader.exhausted()) {
      result.truncated = true;
      result.reason = "malformed snapshot payload";
      break;
    }
    result.image_offsets.push_back(offset);
    offset += 8 + len;
    result.valid_bytes = offset;
    if (decode) result.last = std::move(image);
    result.any_valid = true;
    ++result.images;
  }
  return result;
}

}  // namespace

SnapshotScan scan_snapshots(const JournalBackend& backend) {
  return walk_snapshots(backend, /*decode=*/true);
}

SnapshotScan skim_snapshots(const JournalBackend& backend) {
  return walk_snapshots(backend, /*decode=*/false);
}

}  // namespace arfs::storage::durable
