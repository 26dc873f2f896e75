#include "linalg/numerics.hpp"

#include <sstream>

namespace spotfi {
namespace {

thread_local NumericsScope* g_active_scope = nullptr;

struct NamedCounter {
  const char* name;
  std::size_t NumericsCounters::*field;
};

constexpr NamedCounter kCounters[] = {
    {"solve-regularized", &NumericsCounters::solve_regularized},
    {"eigh-nonconverged", &NumericsCounters::eigh_nonconverged},
    {"eig-general-nonconverged", &NumericsCounters::eig_general_nonconverged},
    {"levmar-nonfinite-trials", &NumericsCounters::levmar_nonfinite_trials},
    {"levmar-poisoned", &NumericsCounters::levmar_poisoned},
    {"levmar-solve-failed", &NumericsCounters::levmar_solve_failed},
    {"starts-rejected", &NumericsCounters::localizer_starts_rejected},
    {"gmm-variance-floored", &NumericsCounters::gmm_variance_floored},
    {"gmm-nonfinite", &NumericsCounters::gmm_nonfinite},
};

}  // namespace

std::size_t NumericsCounters::total() const {
  std::size_t sum = 0;
  for (const auto& c : kCounters) sum += this->*(c.field);
  return sum;
}

void NumericsCounters::merge(const NumericsCounters& other) {
  for (const auto& c : kCounters) this->*(c.field) += other.*(c.field);
}

std::string NumericsCounters::summary() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& c : kCounters) {
    const std::size_t n = this->*(c.field);
    if (n == 0) continue;
    if (!first) os << ", ";
    os << c.name << "=" << n;
    first = false;
  }
  return os.str();
}

NumericsScope::NumericsScope() : parent_(g_active_scope) {
  g_active_scope = this;
}

NumericsScope::NumericsScope(DetachedScopeTag)
    : parent_(g_active_scope), detached_(true) {
  g_active_scope = this;
}

NumericsScope::~NumericsScope() {
  g_active_scope = parent_;
  if (parent_ != nullptr && !detached_) parent_->counters_.merge(counters_);
}

void count_numerics(std::size_t NumericsCounters::*field, std::size_t n) {
  if (g_active_scope != nullptr) g_active_scope->counters_.*field += n;
}

void count_numerics(const NumericsCounters& counters) {
  if (g_active_scope != nullptr) g_active_scope->counters_.merge(counters);
}

bool numerics_scope_active() { return g_active_scope != nullptr; }

}  // namespace spotfi
