/// \file threads.hpp
/// Thread-count resolution shared by every worker pool in the library:
/// the floor's workers, the threaded fault campaign and the parallel
/// branch-and-bound search.

#pragma once

#include <cstddef>
#include <thread>

namespace casbus {

/// Resolves a requested worker count: 0 means one per hardware thread
/// (std::thread::hardware_concurrency, itself clamped to >= 1). The one
/// place the 0-means-auto policy lives.
[[nodiscard]] inline std::size_t effective_workers(
    std::size_t requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace casbus
