#include "arfs/sim/fleet.hpp"

#include <algorithm>

namespace arfs::sim {

Cycle auto_stride(Cycle n) {
  Cycle s = 0;
  while ((s + 1) * (s + 1) <= n) ++s;
  if (n - s * s > (s + 1) * (s + 1) - n) ++s;
  return std::max<Cycle>(1, s);
}

ChunkPlan ChunkPlan::make(std::size_t samples, std::size_t chunk) {
  require(chunk > 0, "fleet chunk must be positive");
  ChunkPlan p;
  p.samples_ = samples;
  p.chunk_ = chunk;
  p.chunks_ = (samples + chunk - 1) / chunk;
  return p;
}

ChunkPlan::Range ChunkPlan::samples_of_chunk(std::size_t c) const {
  require(c < chunks_, "chunk index out of range");
  const std::size_t first = c * chunk_;
  return Range{first, std::min(first + chunk_, samples_)};
}

FleetRunner& FleetRunner::shared() {
  static FleetRunner runner;
  return runner;
}

}  // namespace arfs::sim
