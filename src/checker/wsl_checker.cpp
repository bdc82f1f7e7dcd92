#include "checker/wsl_checker.hpp"

#include <sstream>
#include <unordered_map>

#include "checker/tree_common.hpp"
#include "util/assert.hpp"

namespace rlt::checker {

namespace {

using detail::OpKey;
using detail::PreparedRun;

/// The write strong-linearizability probe for the shared tree search
/// (tree_common.hpp): the committed sequence holds writes, and it passes
/// at a prefix iff some legal linearization of the prefix has exactly
/// that write subsequence.
struct WslProbe {
  static constexpr detail::Wording kWording{
      "write strong-linearization", "writes", "feasible", "infeasible"};

  static bool commits(const OpRecord& op) { return op.is_write(); }

  /// Solves on a zero-copy prefix view of the run's history (no History
  /// copy, no per-probe id-map rebuild) in the solver's exact write-order
  /// mode, and memoizes the verdict per search state.
  bool passes(const PreparedRun& run, std::size_t nevents,
              const std::vector<OpKey>& committed, std::uint64_t state,
              std::string* why) {
    const Time t = run.events[nevents - 1].time;
    bool ok = false;
    const auto hit = memoize ? memo.find(state) : memo.end();
    if (hit != memo.end()) {
      ++cache_hits;
      ok = hit->second;
    } else {
      ++solver_calls;
      LinProblem problem;
      problem.history = run.h;
      problem.cutoff = t;
      problem.mode = WriteOrderMode::kExact;
      problem.exact_write_order.reserve(committed.size());
      for (const OpKey& key : committed) {
        const int id = run.id_of(key);
        RLT_CHECK_MSG(id >= 0 && run.h->op(id).invoke <= t,
                      "committed op " << key << " not present in prefix");
        problem.exact_write_order.push_back(id);
      }
      ok = feasible(problem);
      if (memoize) memo.emplace(state, ok);
    }
    if (!ok && why != nullptr) {
      std::ostringstream os;
      os << "prefix with " << nevents << " events (t<=" << t
         << ") has no linearization with committed write order [";
      for (std::size_t i = 0; i < committed.size(); ++i) {
        os << (i == 0 ? "" : ", ") << committed[i];
      }
      os << ']';
      *why = os.str();
    }
    return ok;
  }

  bool memoize = true;
  std::size_t solver_calls = 0;
  std::size_t cache_hits = 0;
  /// Feasibility verdicts per search state (prefix-tree node, committed
  /// trie id).  Sibling commitment branches re-reach identical states
  /// constantly; the memo answers them without re-running the solver.
  std::unordered_map<std::uint64_t, bool> memo;
};

}  // namespace

WslCheckResult check_write_strong_linearizable(
    const std::vector<History>& runs, const WslCheckOptions& options) {
  WslProbe probe;
  probe.memoize = options.memoize;
  detail::TreeOutcome out =
      detail::TreeSearch(runs, probe, options.memoize).run();
  WslCheckResult result;
  result.ok = out.ok;
  result.write_orders = std::move(out.orders);
  result.explanation = std::move(out.explanation);
  result.solver_calls = probe.solver_calls;
  result.cache_hits = probe.cache_hits + out.subtree_hits;
  result.cache_misses = probe.solver_calls;
  return result;
}

WslCheckResult check_write_strong_linearizable(const History& run,
                                               const WslCheckOptions& options) {
  return check_write_strong_linearizable(std::vector<History>{run}, options);
}

}  // namespace rlt::checker
