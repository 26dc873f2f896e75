// Per-thread scratch arenas for the estimation hot path.
//
// Every stage of the per-packet pipeline (smoothing -> covariance ->
// eigendecomposition -> pseudo-spectrum -> peaks) needs short-lived
// buffers whose sizes are fixed by the link configuration, not the data.
// Heap-allocating them per packet bounds throughput by the allocator, so
// kernels instead check scratch out of a Workspace: a bump-pointer arena
// that reuses one contiguous block packet after packet.
//
// Discipline (see DESIGN.md §11):
//  * One arena per thread, never shared: workers use their ThreadPool
//    lane's arena, everyone else the process-wide thread_workspace().
//    No synchronization exists or is needed.
//  * All checkouts are frame-scoped: a Workspace::Frame rewinds the
//    arena to its checkpoint when it leaves scope, so a kernel can take
//    whatever it needs and the caller's view of the arena is unchanged.
//    Frames nest (stage inside packet inside group) and must be
//    destroyed in LIFO order.
//  * Checkouts are zero-filled, matching the value-initialized Matrix
//    storage they replace — view-kernel results stay byte-identical to
//    the value APIs by construction.
//  * The arena grows by appending blocks mid-frame (existing checkouts
//    stay valid) and coalesces into one contiguous block at the next
//    quiescent reset(), so a warmed arena serves every subsequent packet
//    without touching the heap. High-water marks ride back through
//    ApOutcome telemetry so capacity regressions are visible in
//    production, not just in benchmarks.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.hpp"

namespace spotfi {

/// Point-in-time accounting for one arena.
struct WorkspaceStats {
  /// Total bytes owned across all blocks.
  std::size_t capacity_bytes = 0;
  /// Bytes currently checked out (including alignment padding).
  std::size_t used_bytes = 0;
  /// Maximum of used_bytes over the arena's lifetime.
  std::size_t high_water_bytes = 0;
  /// take() calls served (zero-sized takes excluded).
  std::size_t checkouts = 0;
  /// Heap allocations performed (block growth + coalescing). Flat after
  /// warm-up; a steady climb means frames are leaking checkouts.
  std::size_t block_allocations = 0;
  /// reset() calls.
  std::size_t resets = 0;
};

/// Bump-pointer scratch arena. Single-threaded by contract; obtain one
/// via ThreadPool::workspace() or thread_workspace() rather than sharing
/// an instance across threads.
class Workspace {
 public:
  /// Alignment of every checkout (covers cplx and SIMD-friendly loads).
  static constexpr std::size_t kAlign = 16;
  /// First-block size: one default-grid MUSIC packet peaks at ~85 KB
  /// (the sweep's per-column Grams, ~10 KB; the swept ToF columns,
  /// 1.4 KB each; the subspace views; and the ~24 KB of eigensolver
  /// scratch, released before the sweep), and at ~0.5 MiB on a flat
  /// spectrum whose every ToF column reaches the peak floor, so a
  /// packet and the group frame around it, like a fusion solve, warm up
  /// in a single block.
  static constexpr std::size_t kDefaultBlockBytes = std::size_t{1} << 20;

  Workspace() = default;
  ~Workspace() = default;

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// RAII checkpoint: rewinds the arena to the construction-time cursor
  /// on destruction (unless commit()ed), releasing every checkout made
  /// inside the frame at once. Frames must be destroyed in LIFO order.
  class Frame {
   public:
    explicit Frame(Workspace& ws)
        : ws_(ws),
          parent_(ws.top_frame_),
          mark_(ws.mark()),
          baseline_(ws.used_total_) {
      ws_.top_frame_ = this;
    }

    ~Frame() {
      SPOTFI_ASSERT(ws_.top_frame_ == this, "workspace frames must nest");
      ws_.top_frame_ = parent_;
      if (parent_ != nullptr) {
        // Fold this frame's peak into the enclosing frame: what the
        // parent had checked out when this frame opened, plus this
        // frame's own peak.
        const std::size_t from_parent = baseline_ - parent_->baseline_;
        if (from_parent + peak_ > parent_->peak_) {
          parent_->peak_ = from_parent + peak_;
        }
      }
      if (armed_) ws_.rewind(mark_, baseline_);
    }

    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    /// Keeps the frame's checkouts alive past destruction: ownership of
    /// the bytes passes to the enclosing frame (or to the arena itself,
    /// to be released by reset()).
    void commit() { armed_ = false; }

    /// Peak bytes checked out inside this frame so far (scratch of
    /// nested frames included). Per-packet footprint telemetry.
    [[nodiscard]] std::size_t peak_bytes() const { return peak_; }

   private:
    friend class Workspace;

    Workspace& ws_;
    Frame* parent_;
    std::pair<std::size_t, std::size_t> mark_;  ///< (block index, offset)
    std::size_t baseline_;                      ///< used_total_ at open
    std::size_t peak_ = 0;
    bool armed_ = true;
  };

  /// Checks out a zero-filled span of n elements. T must be trivially
  /// destructible (nothing runs at rewind) and zero-initializable by
  /// memset (true for arithmetic types, std::complex, and plain structs
  /// of them). The span stays valid until the enclosing frame closes or
  /// the arena is reset, even if the arena grows in between.
  template <typename T>
  [[nodiscard]] std::span<T> take(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "workspace memory is rewound, never destroyed");
    static_assert(std::is_trivially_copyable_v<T>,
                  "workspace checkouts are raw memory");
    static_assert(alignof(T) <= kAlign, "over-aligned type in workspace");
    if (n == 0) return {};
    void* p = take_bytes(n * sizeof(T));
    std::memset(p, 0, n * sizeof(T));
    return {static_cast<T*>(p), n};
  }

  /// Releases every checkout. Requires no open frames. When growth left
  /// the arena fragmented across blocks, coalesces into one contiguous
  /// block of the combined capacity so the steady state bump-allocates
  /// from a single block and never touches the heap again.
  void reset();

  [[nodiscard]] WorkspaceStats stats() const;

  /// True while any frame is open (checkouts outstanding).
  [[nodiscard]] bool in_frame() const { return top_frame_ != nullptr; }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] void* take_bytes(std::size_t bytes);
  [[nodiscard]] std::pair<std::size_t, std::size_t> mark() const {
    return {active_, blocks_.empty() ? 0 : blocks_[active_].used};
  }
  void rewind(std::pair<std::size_t, std::size_t> mark, std::size_t baseline);

  std::vector<Block> blocks_;
  std::size_t active_ = 0;  ///< block currently bump-allocating
  std::size_t used_total_ = 0;
  std::size_t high_water_ = 0;
  std::size_t checkouts_ = 0;
  std::size_t block_allocations_ = 0;
  std::size_t resets_ = 0;
  Frame* top_frame_ = nullptr;
};

/// The calling thread's process-wide scratch arena, created on first
/// use. Serial pipelines and pool *callers* draw scratch from here;
/// pool workers use the arena of their lane (ThreadPool::workspace()),
/// which delegates to this function off-pool.
[[nodiscard]] Workspace& thread_workspace();

}  // namespace spotfi
