#include "checker/strong_checker.hpp"

#include <sstream>

#include "checker/tree_common.hpp"
#include "history/view.hpp"

namespace rlt::checker {

namespace {

using detail::OpKey;
using detail::PreparedRun;
using history::HistoryView;

/// The strong-linearizability probe for the shared tree search
/// (tree_common.hpp): the committed sequence holds every op, and it
/// passes at a prefix iff it is a legal value of f there.
struct StrongProbe {
  static constexpr detail::Wording kWording{"strong linearization", "ops",
                                            "valid", "invalid"};

  static bool commits(const OpRecord& /*op*/) { return true; }

  /// Is `committed` a legal value of f(G) for the prefix G of `run` with
  /// `nevents` events?  f(G) must contain all completed ops of G, only
  /// invoked ops, respect real time, and satisfy register semantics with
  /// completed reads returning their actual values.  Validates against a
  /// zero-copy prefix view — no History copy, no per-probe id-map
  /// rebuild; ids below are base-history ids.
  static bool passes(const PreparedRun& run, std::size_t nevents,
                     const std::vector<OpKey>& committed,
                     std::uint64_t /*state*/, std::string* why) {
    const auto fail = [why](const std::string& reason) {
      if (why != nullptr) *why = reason;
      return false;
    };
    const HistoryView view(*run.h, run.events[nevents - 1].time);

    std::vector<int> order;
    order.reserve(committed.size());
    for (const OpKey& key : committed) {
      const int id = run.id_of(key);
      if (id < 0 || !view.included(id)) {
        std::ostringstream os;
        os << "committed op " << key << " not invoked in prefix";
        return fail(os.str());
      }
      order.push_back(id);
    }
    // All completed ops present?
    {
      std::vector<bool> present(view.base_size(), false);
      for (const int id : order) present[static_cast<std::size_t>(id)] = true;
      for (int id = 0; id < static_cast<int>(view.base_size()); ++id) {
        if (view.completed(id) && !present[static_cast<std::size_t>(id)]) {
          std::ostringstream os;
          os << "completed op" << id << " missing from committed order";
          return fail(os.str());
        }
      }
    }
    // Real-time precedence.
    for (std::size_t i = 0; i < order.size(); ++i) {
      for (std::size_t j = i + 1; j < order.size(); ++j) {
        if (view.precedes(order[j], order[i])) {
          std::ostringstream os;
          os << "real-time violation between op" << order[j] << " and op"
             << order[i];
          return fail(os.str());
        }
      }
    }
    // Register semantics; completed reads must match, pending reads take
    // their invented (position-determined) value.
    Value value = run.initial;
    for (const int id : order) {
      if (view.is_write(id)) {
        value = view.value(id);
      } else if (view.completed(id) && view.value(id) != value) {
        std::ostringstream os;
        os << "read op" << id << " returned " << view.value(id)
           << " but committed position implies " << value;
        return fail(os.str());
      }
    }
    return true;
  }
};

}  // namespace

StrongCheckResult check_strong_linearizable(const std::vector<History>& runs) {
  StrongProbe probe;
  detail::TreeOutcome out =
      detail::TreeSearch(runs, probe, /*memoize=*/true).run();
  StrongCheckResult result;
  result.ok = out.ok;
  result.orders = std::move(out.orders);
  result.explanation = std::move(out.explanation);
  return result;
}

StrongCheckResult check_strong_linearizable(const History& run) {
  return check_strong_linearizable(std::vector<History>{run});
}

}  // namespace rlt::checker
