// Numerical fault containment: the shared telemetry layer for the
// dense-linalg kernels.
//
// SpotFi's estimate chain feeds its kernels adversarial inputs by physics:
// coherent multipath collapses the smoothed covariance toward rank
// deficiency before eigh ever runs, the Eq. 9 objective is non-convex, and
// ill-conditioning — not noise — is the dominant failure mode for
// super-resolution CSI estimators. Instead of every kernel throwing
// NumericalError and every caller catching ad hoc, the kernels contain
// their faults in place (ESPRIT's jittered complex solve, eigensolver
// diagnostics, Levenberg-Marquardt's damping) and report through:
//
//  * NumericsCounters — a telemetry struct counting every time a kernel
//    had to leave the exact path. ApProcessor::process_robust and
//    SpotFiServer::try_localize surface these in ApOutcome::note /
//    LocalizationRound::notes so a degraded fix always says *why*.
//  * NumericsScope — a thread-local RAII collector. Kernels report through
//    count_numerics() without threading a counters pointer through every
//    signature; scopes nest, and a child folds its tallies into its parent
//    on destruction (per-AP scopes inside a per-round scope sum up).
#pragma once

#include <cstddef>
#include <string>

namespace spotfi {

/// Telemetry: how many times each containment mechanism fired. One counter
/// per mechanism, so a degradation note can name the exact fallback that
/// saved (or failed to save) a round.
struct NumericsCounters {
  std::size_t solve_regularized = 0;      ///< complex LU needed jitter
  std::size_t eigh_nonconverged = 0;      ///< QL cap hit, residual too big,
                                          ///< or non-finite input
  std::size_t eig_general_nonconverged = 0;  ///< QR hit the iteration limit
  std::size_t levmar_nonfinite_trials = 0;   ///< trial residuals NaN/Inf
  std::size_t levmar_poisoned = 0;        ///< LM entered/hit non-finite terrain
  std::size_t levmar_solve_failed = 0;    ///< damped normal eqs not PD
  std::size_t localizer_starts_rejected = 0;  ///< diverged multi-start seeds
  std::size_t gmm_variance_floored = 0;   ///< GMM fed all-coincident points
  std::size_t gmm_nonfinite = 0;          ///< EM saw a non-finite likelihood

  [[nodiscard]] std::size_t total() const;
  [[nodiscard]] bool any() const { return total() > 0; }
  void merge(const NumericsCounters& other);
  /// Comma-separated "name=count" for the non-zero counters; empty string
  /// when nothing fired. This is what lands in degradation notes.
  [[nodiscard]] std::string summary() const;
};

/// Tag selecting a detached NumericsScope (see below).
struct DetachedScopeTag {
  explicit DetachedScopeTag() = default;
};
inline constexpr DetachedScopeTag kDetachedScope{};

/// RAII telemetry collector. While alive on a thread, count_numerics()
/// calls on that thread accumulate into it. Scopes nest: when a scope is
/// destroyed its counters fold into the enclosing scope (if any), so a
/// per-AP scope reports locally *and* contributes to the round total.
///
/// A *detached* scope still collects while active but never folds into
/// its parent — the counters leave only through counters(). Units of work
/// that may run on a pool worker (where there is no enclosing scope) use
/// detached scopes and hand their counters back in the task result; the
/// dispatching thread then merges them explicitly, in task-index order,
/// via count_numerics(const NumericsCounters&). That keeps the round
/// totals byte-identical whether a task ran inline (an enclosing scope
/// *was* active, but the detached child didn't double-report into it) or
/// on a worker (no enclosing scope existed to catch an implicit fold).
class NumericsScope {
 public:
  NumericsScope();
  explicit NumericsScope(DetachedScopeTag);
  ~NumericsScope();
  NumericsScope(const NumericsScope&) = delete;
  NumericsScope& operator=(const NumericsScope&) = delete;

  [[nodiscard]] const NumericsCounters& counters() const { return counters_; }

 private:
  friend void count_numerics(std::size_t NumericsCounters::*field,
                             std::size_t n);
  friend void count_numerics(const NumericsCounters& counters);
  NumericsCounters counters_;
  NumericsScope* parent_;
  bool detached_ = false;
};

/// Increments `field` on the innermost active scope of this thread; no-op
/// when no scope is active (benches and bare kernel calls pay one branch).
void count_numerics(std::size_t NumericsCounters::*field, std::size_t n = 1);

/// Merges a whole counter set into the innermost active scope of this
/// thread (no-op without one) — how a dispatching thread folds in the
/// counters a detached, possibly-on-another-thread task reported.
void count_numerics(const NumericsCounters& counters);

/// True when a NumericsScope is active on this thread.
[[nodiscard]] bool numerics_scope_active();

}  // namespace spotfi
