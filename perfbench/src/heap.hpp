// Live-heap accounting for the benchmark binary. heap.cpp replaces the
// global operator new/delete family, so every allocation the library
// makes — on any thread — is counted by its usable size.
#pragma once

#include <cstdint>

namespace perfbench {

/// Bytes currently allocated through operator new.
[[nodiscard]] std::int64_t heap_live_bytes();
/// Highest live_bytes since the last heap_reset_peak().
[[nodiscard]] std::int64_t heap_peak_bytes();
/// Restarts the high-water mark at the current live bytes.
void heap_reset_peak();

}  // namespace perfbench
