#include "heap.hpp"

#include <malloc.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace perfbench {
namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

std::int64_t heap_live_bytes() { return g_live.load(std::memory_order_relaxed); }
std::int64_t heap_peak_bytes() { return g_peak.load(std::memory_order_relaxed); }
void heap_reset_peak() {
  g_peak.store(g_live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

}  // namespace perfbench

// The array and nothrow forms forward to these by default, so replacing
// them counts every allocation.
void* operator new(std::size_t n) { return perfbench::counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return perfbench::counted_alloc(n, static_cast<std::size_t>(a));
}
// Memory from the replaced operator new is malloc'd, so free() matches.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { perfbench::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { perfbench::counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  perfbench::counted_free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
