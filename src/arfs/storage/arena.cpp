#include "arfs/storage/arena.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "arfs/common/check.hpp"
#include "arfs/storage/durable/wire.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define ARFS_ARENA_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace arfs::storage {

namespace {

constexpr std::size_t kAlign = 8;

[[nodiscard]] std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}

// Explicit little-endian stores/loads: the on-disk format must not depend
// on host endianness, and the scanner reads the same bytes back via stdio.
void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
[[nodiscard]] std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}
[[nodiscard]] std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// Chunk-header field offsets.
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffState = 4;
constexpr std::size_t kOffSeq = 8;
constexpr std::size_t kOffLen = 16;
constexpr std::size_t kOffCrc = 20;

constexpr std::uint32_t kStateOpen = 0;
constexpr std::uint32_t kStateSealed = 1;

}  // namespace

MappedArena::MappedArena(ArenaOptions options) : options_(std::move(options)) {
#ifdef ARFS_ARENA_MMAP
  const long ps = ::sysconf(_SC_PAGESIZE);
  if (ps > 0) page_ = static_cast<std::size_t>(ps);
#endif
  options_.slab_bytes =
      align_up(std::max(options_.slab_bytes, page_), page_);
#ifdef ARFS_ARENA_MMAP
  if (!options_.path.empty()) {
    fd_ = ::open(options_.path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) {
      throw Error("arena: cannot open backing file " + options_.path);
    }
    file_backed_ = true;
  }
#else
  options_.path.clear();  // mmap unavailable: in-memory fallback only.
#endif
  std::lock_guard<std::mutex> lock(mu_);
  grow_locked(kFileHeaderBytes);
  // File header lives at the head of extent 0; chunks start right after it.
  std::uint8_t* h = extents_[0].base;
  store_u64(h, kFileMagic);
  store_u32(h + 8, kFileVersion);
  store_u32(h + 12, 0);
  store_u64(h + 16, options_.slab_bytes);
  cursor_off_ = kFileHeaderBytes;
}

MappedArena::~MappedArena() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
#ifdef ARFS_ARENA_MMAP
  for (Extent& e : extents_) {
    if (file_backed_ && e.base != nullptr) ::munmap(e.base, e.bytes);
  }
  if (fd_ >= 0) ::close(fd_);
#endif
}

void MappedArena::grow_locked(std::size_t need) {
  // Seal off the current extent's tail: an explicit padding chunk when a
  // header fits, zeros otherwise (the scanner skips either form).
  if (!extents_.empty()) {
    Extent& cur = extents_[cursor_extent_];
    const std::size_t rest = cur.bytes - cursor_off_;
    if (rest >= kChunkHeaderBytes && cur.base != nullptr) {
      std::uint8_t* h = cur.base + cursor_off_;
      store_u32(h + kOffMagic, kPadMagic);
      store_u32(h + kOffState, kStateSealed);
      store_u64(h + kOffSeq, 0);
      store_u32(h + kOffLen,
                static_cast<std::uint32_t>(rest - kChunkHeaderBytes));
      store_u32(h + kOffCrc, 0);
    }
    // An in-memory extent whose regions are all released can go now — the
    // cursor is leaving it for good.
    if (!file_backed_ && cur.live_regions == 0 && extents_.size() > 1) {
      cur.heap.reset();
      cur.base = nullptr;
    }
  }
  const std::size_t len =
      align_up(std::max(need, options_.slab_bytes), options_.slab_bytes);
  Extent e;
  e.file_offset = file_bytes_;
  e.bytes = len;
#ifdef ARFS_ARENA_MMAP
  if (file_backed_) {
    if (::ftruncate(fd_, static_cast<off_t>(file_bytes_ + len)) != 0) {
      throw Error("arena: ftruncate failed growing " + options_.path);
    }
    void* m = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd_,
                     static_cast<off_t>(e.file_offset));
    if (m == MAP_FAILED) {
      throw Error("arena: mmap failed growing " + options_.path);
    }
    e.base = static_cast<std::uint8_t*>(m);
  }
#endif
  if (!file_backed_) {
    e.heap = std::make_unique<std::uint8_t[]>(len);  // value-initialized
    e.base = e.heap.get();
  }
  extents_.push_back(std::move(e));
  file_bytes_ += len;
  cursor_extent_ = extents_.size() - 1;
  cursor_off_ = 0;
  stats_.extents += 1;
  stats_.file_bytes = file_bytes_;
}

std::uint8_t* MappedArena::chunk_base_locked(const RegionInfo& r) const {
  const Extent& e = extents_[r.extent];
  ensure(e.base != nullptr, "arena extent already freed");
  return e.base + r.offset;
}

MappedArena::RegionId MappedArena::allocate(std::size_t payload_bytes) {
  require(payload_bytes <= 0xFFFFFFFFu - kChunkHeaderBytes,
          "arena region payload too large");
  const std::size_t chunk = align_up(kChunkHeaderBytes + payload_bytes, kAlign);
  std::lock_guard<std::mutex> lock(mu_);
  if (extents_[cursor_extent_].bytes - cursor_off_ < chunk) {
    grow_locked(chunk);
  }
  const RegionId id = regions_.size();
  RegionInfo info;
  info.extent = static_cast<std::uint32_t>(cursor_extent_);
  info.state = State::kOpen;
  info.offset = cursor_off_;
  info.payload = static_cast<std::uint32_t>(payload_bytes);
  std::uint8_t* h = extents_[cursor_extent_].base + cursor_off_;
  store_u32(h + kOffMagic, kChunkMagic);
  store_u32(h + kOffState, kStateOpen);
  store_u64(h + kOffSeq, id);
  store_u32(h + kOffLen, info.payload);
  store_u32(h + kOffCrc, 0);
  regions_.push_back(info);
  extents_[cursor_extent_].live_regions += 1;
  cursor_off_ += chunk;
  stats_.regions_allocated += 1;
  stats_.payload_bytes += payload_bytes;
  return id;
}

std::uint8_t* MappedArena::data(RegionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  require(id < regions_.size(), "arena: unknown region id");
  const RegionInfo& r = regions_[id];
  require(r.state == State::kOpen, "arena: data() on a non-open region");
  return chunk_base_locked(r) + kChunkHeaderBytes;
}

void MappedArena::seal(RegionId id) {
  std::uint8_t* base = nullptr;
  std::uint32_t payload = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    require(id < regions_.size(), "arena: unknown region id");
    RegionInfo& r = regions_[id];
    require(r.state == State::kOpen, "arena: seal() on a non-open region");
    base = chunk_base_locked(r);
    payload = r.payload;
  }
  // CRC outside the lock: the sealing worker is the region's only writer.
  const std::uint32_t crc =
      durable::crc32(base + kChunkHeaderBytes, payload);
  std::lock_guard<std::mutex> lock(mu_);
  RegionInfo& r = regions_[id];
  store_u32(base + kOffCrc, crc);
  store_u32(base + kOffState, kStateSealed);
  r.state = State::kSealed;
  stats_.regions_sealed += 1;
  pending_.push_back(id);
  pending_bytes_ += align_up(kChunkHeaderBytes + payload, kAlign);
  const durable::SyncPolicy& p = options_.sync;
  const bool bytes_hit = p.bytes_watermark > 0 &&
                         pending_bytes_ >= p.bytes_watermark;
  const bool frames_hit = p.frames_watermark > 0 &&
                          pending_.size() >= p.frames_watermark;
  bool flush = false;
  switch (p.mode) {
    case durable::SyncMode::kEveryCommit: flush = true; break;
    case durable::SyncMode::kBytesWatermark: flush = bytes_hit; break;
    case durable::SyncMode::kFramesWatermark: flush = frames_hit; break;
    case durable::SyncMode::kHybrid: flush = bytes_hit || frames_hit; break;
    // The arena's write-back path has no commit/sync feedback loop to tune
    // from; an adaptive policy behaves as its watermarks read statically.
    case durable::SyncMode::kAdaptive: flush = bytes_hit || frames_hit; break;
  }
  if (flush) flush_locked();
}

void MappedArena::flush_locked() {
  if (pending_.empty()) return;
#ifdef ARFS_ARENA_MMAP
  if (file_backed_) {
    // Coalesce the batch into maximal contiguous page spans per extent:
    // sequentially allocated chunks share pages and sit back to back, so a
    // watermark batch of hundreds of chunks collapses into a handful of
    // msync/madvise calls instead of two syscalls per chunk.
    struct Span {
      std::uint32_t extent;
      std::size_t lo, hi;
    };
    std::vector<Span> spans;
    spans.reserve(pending_.size());
    for (RegionId id : pending_) {
      const RegionInfo& r = regions_[id];
      const std::size_t chunk =
          align_up(kChunkHeaderBytes + r.payload, kAlign);
      spans.push_back(
          {r.extent, r.offset / page_ * page_,
           std::min(align_up(r.offset + chunk, page_),
                    extents_[r.extent].bytes)});
    }
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
      return a.extent != b.extent ? a.extent < b.extent : a.lo < b.lo;
    });
    std::size_t w = 0;
    for (std::size_t i = 1; i < spans.size(); ++i) {
      if (spans[i].extent == spans[w].extent && spans[i].lo <= spans[w].hi) {
        spans[w].hi = std::max(spans[w].hi, spans[i].hi);
      } else {
        spans[++w] = spans[i];
      }
    }
    spans.resize(w + 1);
    for (const Span& s : spans) {
      std::uint8_t* base = extents_[s.extent].base + s.lo;
      ::msync(base, s.hi - s.lo, MS_ASYNC);
      if (options_.drop_after_sync) {
        // Dropping whole spans — boundary pages included — is safe even
        // while a neighbouring open chunk on a shared page is being
        // written: MAP_SHARED pages *are* the page cache, so DONTNEED only
        // unmaps PTEs (the writer refaults onto the same cached page, no
        // bytes are ever discarded). The cost of a refault is accepted to
        // keep the RSS bound tight — interior-only drops would leave one
        // resident boundary page per sealed chunk forever.
        ::madvise(base, s.hi - s.lo, MADV_DONTNEED);
        stats_.dropped_bytes += s.hi - s.lo;
      }
    }
  }
#endif
  pending_.clear();
  pending_bytes_ = 0;
  stats_.syncs += 1;
}

const std::uint8_t* MappedArena::read(RegionId id,
                                      std::size_t* payload_bytes) const {
  const std::uint8_t* base = nullptr;
  std::uint32_t payload = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    require(id < regions_.size(), "arena: unknown region id");
    const RegionInfo& r = regions_[id];
    require(r.state != State::kOpen, "arena: read() on an open region");
    require(r.state != State::kReleased,
            "arena: read() on a released region");
    base = chunk_base_locked(r);
    payload = r.payload;
  }
  const std::uint32_t want = load_u32(base + kOffCrc);
  const std::uint32_t got =
      durable::crc32(base + kChunkHeaderBytes, payload);
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.crc_checks += 1;
  }
  if (got != want) {
    throw Error("arena: chunk CRC mismatch in region " + std::to_string(id));
  }
  if (payload_bytes != nullptr) *payload_bytes = payload;
  return base + kChunkHeaderBytes;
}

std::size_t MappedArena::region_bytes(RegionId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  require(id < regions_.size(), "arena: unknown region id");
  return regions_[id].payload;
}

void MappedArena::release(RegionId id) {
  std::lock_guard<std::mutex> lock(mu_);
  require(id < regions_.size(), "arena: unknown region id");
  RegionInfo& r = regions_[id];
  require(r.state == State::kSealed, "arena: release() on a non-sealed region");
  r.state = State::kReleased;
  stats_.regions_released += 1;
  Extent& e = extents_[r.extent];
  e.live_regions -= 1;
#ifdef ARFS_ARENA_MMAP
  if (file_backed_ && e.base != nullptr && e.live_regions == 0) {
    // Extent-granular drop, not per-chunk: a read() fault maps a
    // fault-around neighbourhood of page-cache pages into the table, so a
    // chunk-sized DONTNEED unmaps fewer pages than the fault that preceded
    // it and RSS climbs with every chunk consumed. Dropping the whole
    // extent once its last region is released strictly dominates any
    // fault-around spill from reads within it (measured: 5.5 MB vs 69 MB
    // consume-phase peak on a 80 MB stream).
    ::madvise(e.base, e.bytes, MADV_DONTNEED);
    stats_.dropped_bytes += e.bytes;
  }
#endif
  if (!file_backed_ && e.live_regions == 0 && r.extent != cursor_extent_) {
    e.heap.reset();
    e.base = nullptr;
  }
}

void MappedArena::sync() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

MappedArena::Stats MappedArena::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ArenaScan scan_arena_file(const std::string& path) {
  ArenaScan s;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    s.error = "cannot open " + path;
    return s;
  }
  in.seekg(0, std::ios::end);
  const std::uint64_t size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  s.file_bytes = size;
  std::uint8_t head[MappedArena::kFileHeaderBytes];
  if (size < sizeof(head) ||
      !in.read(reinterpret_cast<char*>(head), sizeof(head))) {
    s.error = "file shorter than the arena header";
    return s;
  }
  if (load_u64(head) != MappedArena::kFileMagic) {
    s.error = "bad file magic (not an arena file)";
    return s;
  }
  if (load_u32(head + 8) != MappedArena::kFileVersion) {
    s.error = "unsupported arena version";
    return s;
  }
  s.slab_bytes = load_u64(head + 16);
  if (s.slab_bytes == 0 || s.slab_bytes % kAlign != 0 ||
      size % s.slab_bytes != 0) {
    s.error = "implausible slab size";
    return s;
  }
  s.header_ok = true;
  std::vector<std::uint8_t> payload;
  std::uint64_t off = MappedArena::kFileHeaderBytes;
  while (off + MappedArena::kChunkHeaderBytes <= size) {
    std::uint8_t h[MappedArena::kChunkHeaderBytes];
    in.seekg(static_cast<std::streamoff>(off));
    if (!in.read(reinterpret_cast<char*>(h), sizeof(h))) {
      s.error = "short read at offset " + std::to_string(off);
      return s;
    }
    const std::uint32_t magic = load_u32(h + kOffMagic);
    if (magic == MappedArena::kChunkMagic || magic == MappedArena::kPadMagic) {
      const std::uint32_t len = load_u32(h + kOffLen);
      const std::uint64_t chunk =
          magic == MappedArena::kPadMagic
              ? MappedArena::kChunkHeaderBytes + len
              : align_up(MappedArena::kChunkHeaderBytes + len, kAlign);
      if (off + chunk > size) {
        s.error = "truncated chunk at offset " + std::to_string(off);
        return s;
      }
      if (magic == MappedArena::kPadMagic) {
        s.padding_bytes += chunk;
      } else {
        s.chunks += 1;
        s.payload_bytes += len;
        if (load_u32(h + kOffState) == kStateSealed) {
          s.sealed += 1;
          payload.resize(len);
          if (len > 0 &&
              !in.read(reinterpret_cast<char*>(payload.data()), len)) {
            s.error = "short payload read at offset " + std::to_string(off);
            return s;
          }
          if (durable::crc32(payload.data(), len) != load_u32(h + kOffCrc)) {
            s.crc_failures += 1;
          }
        } else {
          s.open += 1;
        }
      }
      off += chunk;
      continue;
    }
    bool zeros = true;
    for (std::uint8_t b : h) zeros = zeros && b == 0;
    if (zeros) {
      // Zero tail of an extent: skip to the next slab boundary.
      const std::uint64_t next = (off / s.slab_bytes + 1) * s.slab_bytes;
      s.padding_bytes += next - off;
      off = next;
      continue;
    }
    s.error = "unrecognized chunk magic at offset " + std::to_string(off);
    return s;
  }
  if (off < size) s.padding_bytes += size - off;  // sub-header zero tail
  s.ok = s.crc_failures == 0;
  if (!s.ok) s.error = std::to_string(s.crc_failures) + " chunk CRC failure(s)";
  return s;
}

}  // namespace arfs::storage
