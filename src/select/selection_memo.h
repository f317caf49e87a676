// Budget-free selection memo: the result of the first selector run the area
// budget did not bind, served at every budget that run's admissions fit.
//
// Exactness. Algorithm 1 reads the budget only in its admission tests, a
// config's area or a ⊗ pair's summed area `> budget` (SelectStats::admits).
// Suppose a run at budget B rejects nothing, and the largest area it admits
// is M <= B. At any budget B' >= M the DP makes the same tests, in the same
// order, with the same outcomes, so it feeds identical sequences to every
// sort, Pareto and α-filter step and returns the same winner bit for bit.
// Anything computed from the winner alone (the accelerator merge) is the
// same too. All rejection-free runs of one selector setup are therefore one
// run, so keeping the first is enough. A budget below M rejects something
// and is never served.
#pragma once

#include <optional>

#include "select/selector.h"

namespace cayman::select {

/// Holds one `Value` derived from a rejection-free run and the bound M it
/// is valid above. The setup key is SelectorParams without the budget (the
/// α, pruning threshold and clock ratio); a lookup under another
/// setup misses. Thread-compatible, like the Framework that owns it: the
/// value is set once and never replaced, so a pointer find() returns stays
/// valid for the memo's lifetime.
template <typename Value>
class SelectionMemo {
 public:
  /// The memoized value when `params` has the stored setup and its budget
  /// is at least the stored bound; nullptr otherwise.
  const Value* find(const SelectorParams& params) const {
    if (!value_.has_value() || !sameSetup(params, setup_) ||
        !(params.areaBudgetUm2 >= setup_.areaBudgetUm2)) {
      return nullptr;
    }
    return &*value_;
  }

  /// Offers a finished run under `params` with `stats`: when the run
  /// rejected nothing and the memo is still empty, keeps `make()` with the
  /// bound stats.maxAdmittedAreaUm2. `make` runs only when it is kept.
  template <typename Make>
  void offer(const SelectorParams& params, const SelectStats& stats,
             Make&& make) {
    if (stats.budgetBound || value_.has_value()) return;
    value_.emplace(make());
    setup_ = params;
    setup_.areaBudgetUm2 = stats.maxAdmittedAreaUm2;
    setup_.cancel = nullptr;
  }

 private:
  static bool sameSetup(const SelectorParams& a, const SelectorParams& b) {
    return a.alpha == b.alpha && a.pruneHotFraction == b.pruneHotFraction &&
           a.clockRatio == b.clockRatio;
  }

  /// The stored run's setup; areaBudgetUm2 holds the bound M.
  SelectorParams setup_;
  std::optional<Value> value_;
};

}  // namespace cayman::select
