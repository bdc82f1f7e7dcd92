// The lazy-commitment tree search behind the strong (Definition 3) and
// write strong (Definition 4) linearizability checkers, and the pieces it
// is built from: stable operation identities across runs that share a
// prefix, event signatures for prefix-tree construction, and the
// ordered-selection enumerator.  The simulator's WSL register model
// (sim/regmodel.cpp) also uses the enumerator, for its commitment menus.
//
// The two definitions differ only in which operations f must keep
// extending from prefix to prefix: every operation (strong) or only
// writes (write strong).  So one search serves both, templated on a
// *probe* that supplies exactly that difference (see `TreeSearch`).
//
// The search takes a SET of single-register runs that may share
// event-prefixes, builds their prefix tree, and looks for a *committed
// sequence* per tree node that
//   * grows only by appending from a node to its children,
//   * passes the probe's test at the node's event-prefix,
//   * is shared by every run through the node.
//
// Lazy commitment, and why it is complete.  The search extends the
// committed sequence only at events where it has stopped passing the
// test, trying every ordered selection of the uncommitted invoked ops the
// probe commits.  Both tests are monotone: a sequence that passes at a
// prefix passes at every shorter prefix that has invoked all its ops.
// Suppose some function f exists, and let g(G) be the shortest prefix of
// f(G) (of its write subsequence, for write strong) that passes at G.
// f(G) is a prefix of f(G') whenever G is a prefix of G', so by
// monotonicity g(G) is a prefix of g(G'): at each event g either stays put
// (exactly when the old sequence still passes) or grows by uncommitted
// ops invoked so far — one of the selections the search tries.  So the
// search reaches g, and exhausting every lazy path proves that no f
// exists.  Invocation events are never decision points: they complete
// nothing, so a sequence that passed before one still passes after it
// (event times are distinct, per History::validate).
// tests/checker_test.cpp and tests/property_test.cpp exercise both
// checkers.
//
// Not part of the public API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "checker/lin_solver.hpp"
#include "checker/spec.hpp"
#include "util/assert.hpp"

namespace rlt::checker::detail {

using history::Event;
using history::ProcessId;

/// Stable identity of an operation across runs that share a prefix:
/// (process, ordinal of the op among that process's ops, by invocation).
struct OpKey {
  ProcessId process = -1;
  int ordinal = -1;
  friend auto operator<=>(const OpKey&, const OpKey&) = default;
};

inline std::ostream& operator<<(std::ostream& os, const OpKey& k) {
  return os << 'p' << k.process << '#' << k.ordinal;
}

/// Event signature used to detect shared prefixes between runs.
struct EventSig {
  Time time = 0;
  Event::Kind kind = Event::Kind::kInvoke;
  ProcessId process = -1;
  int ordinal = -1;
  OpKind op_kind = OpKind::kRead;
  bool has_value = false;
  Value value = 0;
  friend bool operator==(const EventSig&, const EventSig&) = default;
};

/// A run preprocessed for a tree walk.
struct PreparedRun {
  const History* h = nullptr;
  int input_index = -1;
  Value initial = 0;                 ///< the register's initial value
  std::vector<Event> events;         ///< time-sorted
  std::vector<EventSig> signatures;  ///< parallel to events
  std::vector<OpKey> op_keys;        ///< per op id
  /// Inverse of op_keys, sorted by key: OpKey -> op id in *h.  Because
  /// prefix views keep base ids, this one table answers key lookups for
  /// EVERY event-prefix of the run (an op is in the prefix at t iff its
  /// invoke <= t) — the per-probe `key_to_id_map(prefix)` rebuild is
  /// gone.  Flat + binary search: lookups sit inside the tree search's
  /// innermost loops.
  std::vector<std::pair<OpKey, int>> key_index;

  /// Id of `key` in *h, or -1 if no such op.
  [[nodiscard]] int id_of(const OpKey& key) const {
    const auto it = std::lower_bound(
        key_index.begin(), key_index.end(), key,
        [](const auto& entry, const OpKey& k) { return entry.first < k; });
    return it != key_index.end() && it->first == key ? it->second : -1;
  }
};

/// Builds the per-run preprocessing; checks process well-formedness.
inline PreparedRun prepare_run(const History& h, int input_index,
                               Value initial) {
  PreparedRun run;
  run.h = &h;
  run.input_index = input_index;
  run.initial = initial;
  run.events = h.events();
  std::map<ProcessId, std::vector<int>> by_process;
  for (const OpRecord& op : h.ops()) by_process[op.process].push_back(op.id);
  run.op_keys.resize(h.size());
  for (auto& [proc, ids] : by_process) {
    std::sort(ids.begin(), ids.end(), [&h](int a, int b) {
      return h.op(a).invoke < h.op(b).invoke;
    });
    for (std::size_t i = 1; i < ids.size(); ++i) {
      RLT_CHECK_MSG(h.op(ids[i - 1]).precedes(h.op(ids[i])),
                    "process p" << proc
                                << " has overlapping operations — histories "
                                   "must be well-formed");
    }
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const OpKey key{proc, static_cast<int>(i)};
      run.op_keys[static_cast<std::size_t>(ids[i])] = key;
      // by_process iterates processes ascending and ordinals ascending,
      // so key_index is built already sorted.
      run.key_index.emplace_back(key, ids[i]);
    }
  }
  run.signatures.reserve(run.events.size());
  for (const Event& ev : run.events) {
    const OpRecord& op = h.op(ev.op_id);
    EventSig sig;
    sig.time = ev.time;
    sig.kind = ev.kind;
    sig.process = op.process;
    sig.ordinal = run.op_keys[static_cast<std::size_t>(ev.op_id)].ordinal;
    sig.op_kind = op.kind;
    if (op.is_write()) {
      sig.has_value = true;
      sig.value = op.value;  // written value, known from invocation
    } else if (ev.kind == Event::Kind::kResponse) {
      sig.has_value = true;
      sig.value = op.value;  // returned value, known at response
    }
    run.signatures.push_back(sig);
  }
  return run;
}

/// Prefix-tree node ids: `result[i][k]` identifies the tree node run `i`
/// reaches after its first `k` events.  Two runs share a node iff their
/// first `k` event signatures are identical — i.e. iff they share that
/// event-prefix — so (node id, extra state) is an exact memoization key
/// for any quantity that depends only on the prefix.  Node 0 is the root
/// (empty prefix); ids are dense.
inline std::vector<std::vector<int>> prefix_tree_nodes(
    const std::vector<PreparedRun>& runs) {
  std::vector<std::vector<int>> node_ids(runs.size());
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    node_ids[i].assign(runs[i].events.size() + 1, 0);
    max_depth = std::max(max_depth, runs[i].events.size());
  }
  int next_id = 1;
  for (std::size_t k = 1; k <= max_depth; ++k) {
    // Group runs still alive at depth k by (parent node, k-th signature).
    std::vector<std::pair<std::pair<int, EventSig>, int>> groups;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (runs[i].events.size() < k) continue;
      const std::pair<int, EventSig> edge{node_ids[i][k - 1],
                                          runs[i].signatures[k - 1]};
      auto it = std::find_if(groups.begin(), groups.end(), [&edge](const auto& g) {
        return g.first == edge;
      });
      if (it == groups.end()) {
        groups.push_back({edge, next_id++});
        it = std::prev(groups.end());
      }
      node_ids[i][k] = it->second;
    }
  }
  return node_ids;
}

/// Enumerates all ordered selections (permutations of non-empty subsets)
/// of `candidates`, invoking `fn` with each; stops early when `fn`
/// returns true and propagates the result.  `fn` is also called on every
/// proper prefix of longer selections.  Statically dispatched (`Fn` is a
/// template parameter, not std::function): this runs inside the factorial
/// part of the tree search and of the WSL model's commitment menus.
template <typename T, typename Fn>
bool for_each_ordered_selection(const std::vector<T>& candidates,
                                const Fn& fn) {
  // One bit per candidate, like the solver's op sets.
  RLT_CHECK_MSG(candidates.size() <= kMaxSolverOps,
                "at most " << kMaxSolverOps << " candidates, got "
                           << candidates.size());
  std::vector<T> current;
  current.reserve(candidates.size());
  std::uint64_t used = 0;
  const auto rec = [&](const auto& self) -> bool {
    if (!current.empty() && fn(current)) return true;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if ((used & (1ULL << i)) != 0) continue;
      used |= 1ULL << i;
      current.push_back(candidates[i]);
      if (self(self)) return true;
      current.pop_back();
      used &= ~(1ULL << i);
    }
    return false;
  };
  return rec(rec);
}

/// How a probe's failure certificate names things.
struct Wording {
  const char* function;  ///< the function shown not to exist
  const char* ops;       ///< the kind of op it commits, plural
  const char* pass;      ///< a committed sequence that passes the test
  const char* fail;      ///< one that does not
};

/// Outcome of `TreeSearch::run`.
struct TreeOutcome {
  bool ok = false;
  /// On success: for each input run, its final committed order (op ids).
  std::vector<std::vector<int>> orders;
  /// On failure: the deepest decision point at which every commitment
  /// choice fails, with per-choice reasons.
  std::string explanation;
  /// Decision subtrees answered by the failed-subtree memo.
  std::size_t subtree_hits = 0;
};

/// The lazy-commitment search over the prefix-closed set generated by
/// `runs` (all prefixes of every run); `run()` runs it once.
///
/// Requirements: every run is a single-register history on the same
/// register with the same initial value; every process's operations are
/// sequential within a run; each run has at most kMaxSolverOps
/// operations.  Runs that extend one another are allowed; branching runs
/// must agree exactly (event times and payloads) on their common prefix.
/// The constructor throws util::InvariantViolation otherwise.
///
/// `Probe` supplies what distinguishes one checker from another:
///   * `static bool commits(const OpRecord& op)` — whether the committed
///     sequence takes `op` (writes only, or every op);
///   * `bool passes(const PreparedRun& run, std::size_t nevents,
///                  const std::vector<OpKey>& committed,
///                  std::uint64_t state, std::string* why)` — whether
///     `committed` passes the test at `run`'s prefix with `nevents >= 1`
///     events; on failure, fills `why` (when non-null).  `state`
///     identifies (prefix, committed) exactly, for probes that memoize;
///   * `static constexpr Wording kWording` — its certificate's words.
/// `memoize` turns the failed-subtree memo on; it changes no verdict and
/// no order.
template <typename Probe>
class TreeSearch {
 public:
  TreeSearch(const std::vector<History>& runs, Probe& probe, bool memoize)
      : probe_(probe), memoize_(memoize) {
    RLT_CHECK_MSG(!runs.empty(), "need at least one history");
    const auto reg = single_register_of(runs.front());
    const Value initial = runs.front().initial(reg);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      RLT_CHECK_MSG(single_register_of(runs[i]) == reg,
                    "all runs must use the same register");
      RLT_CHECK_MSG(runs[i].initial(reg) == initial,
                    "all runs must share the initial value");
      RLT_CHECK_MSG(runs[i].size() <= kMaxSolverOps,
                    "runs limited to " << kMaxSolverOps << " ops");
      runs_.push_back(prepare_run(runs[i], static_cast<int>(i), initial));
    }
    node_ids_ = prefix_tree_nodes(runs_);
    orders_.resize(runs.size());
  }

  TreeOutcome run() {
    std::vector<int> group(runs_.size());
    std::iota(group.begin(), group.end(), 0);
    TreeOutcome out;
    out.ok = walk(group, 0, /*cid=*/0);
    out.subtree_hits = subtree_hits_;
    if (out.ok) {
      out.orders = std::move(orders_);
    } else {
      std::ostringstream os;
      os << "no " << Probe::kWording.function
         << " function exists; deepest failing decision point (after "
         << deepest_events_ << " events): " << deepest_failure_;
      out.explanation = os.str();
    }
    return out;
  }

 private:
  /// Committed-sequence interning: every distinct committed sequence the
  /// search reaches gets a dense trie id (node 0 = the empty sequence);
  /// `cid` values are threaded through walk/step alongside `committed_`.
  struct TrieNode {
    std::vector<std::pair<OpKey, int>> children;
  };

  int trie_child(int cid, const OpKey& key) {
    auto& children = trie_[static_cast<std::size_t>(cid)].children;
    for (const auto& [k, child] : children) {
      if (k == key) return child;
    }
    const int child = static_cast<int>(trie_.size());
    children.emplace_back(key, child);  // before trie_ grows under it
    trie_.emplace_back();
    return child;
  }

  /// Exact key of a search state: (prefix-tree node, committed trie id).
  /// The node identifies the event-prefix (runs sharing a node agree on
  /// every event) and the trie id the committed sequence, so keys never
  /// conflate distinct states.  Both dense ints: no vector hashing.
  [[nodiscard]] std::uint64_t state_key(int run_idx, std::size_t nevents,
                                        int cid) const {
    const int node =
        node_ids_[static_cast<std::size_t>(run_idx)][nevents];
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(node))
            << 32) |
           static_cast<std::uint32_t>(cid);
  }

  /// Uncommitted ops the probe commits that the prefix has invoked — the
  /// candidates for lazy commitment extension.
  [[nodiscard]] std::vector<OpKey> extension_candidates(
      const PreparedRun& run, std::size_t nevents) const {
    const Time t = run.events[nevents - 1].time;
    std::vector<OpKey> out;
    for (const OpRecord& op : run.h->ops()) {
      if (!Probe::commits(op) || op.invoke > t) continue;
      const OpKey key = run.op_keys[static_cast<std::size_t>(op.id)];
      if (std::find(committed_.begin(), committed_.end(), key) ==
          committed_.end()) {
        out.push_back(key);
      }
    }
    return out;
  }

  void note_failure(std::size_t nevents, const std::string& description) {
    if (nevents >= deepest_events_) {
      deepest_events_ = nevents;
      deepest_failure_ = description;
    }
  }

  /// Extends the committed sequence of `subgroup` (runs sharing their
  /// first `depth` events and the next event's signature) over that
  /// event, then walks on.  Leaves `committed_` at least as long as on
  /// entry, with that prefix untouched.
  bool step(const std::vector<int>& subgroup, std::size_t depth, int cid) {
    const int rep_idx = subgroup.front();
    const PreparedRun& rep = runs_[static_cast<std::size_t>(rep_idx)];
    const std::size_t nevents = depth + 1;

    // Failed-subtree memo: the failure of a whole decision subtree is a
    // pure function of the state.  Extension retries at shallower events
    // re-reach the same states constantly; this skips re-walking them.
    // Only failures are cached: successes carry result-order side
    // effects.
    const std::uint64_t state = state_key(rep_idx, nevents, cid);
    if (memoize_ && failed_.contains(state)) {
      ++subtree_hits_;
      return false;
    }

    // Invocation events cannot change the test's verdict (see the file
    // comment), and it held when we were called.  Only responses force a
    // fresh probe.
    const bool invocation = rep.events[depth].kind == Event::Kind::kInvoke;

    std::string why;
    if (invocation || probe_.passes(rep, nevents, committed_, state, &why)) {
      if (walk(subgroup, nevents, cid)) return true;
      if (memoize_) failed_.insert(state);
      return false;
    }

    // Forced decision point: lazily extend the committed sequence with
    // some ordered selection of uncommitted invoked ops.
    const Wording& words = Probe::kWording;
    const std::vector<OpKey> candidates = extension_candidates(rep, nevents);
    std::ostringstream failure;
    failure << why << "; tried extensions over " << candidates.size()
            << " uncommitted " << words.ops << ':';
    const std::size_t base = committed_.size();
    const bool ok = for_each_ordered_selection(
        candidates, [&](const std::vector<OpKey>& extension) -> bool {
          committed_.resize(base);
          committed_.insert(committed_.end(), extension.begin(),
                            extension.end());
          int ext_cid = cid;
          for (const OpKey& key : extension) ext_cid = trie_child(ext_cid, key);
          const auto render = [&extension](std::ostream& os) {
            os << "\n  + [";
            for (std::size_t i = 0; i < extension.size(); ++i) {
              os << (i == 0 ? "" : ", ") << extension[i];
            }
            os << ']';
          };
          if (!probe_.passes(rep, nevents, committed_,
                             state_key(rep_idx, nevents, ext_cid), nullptr)) {
            render(failure);
            failure << ' ' << words.fail;
            return false;
          }
          if (walk(subgroup, nevents, ext_cid)) return true;
          render(failure);
          failure << ' ' << words.pass << " here but fails on a continuation";
          return false;
        });
    if (!ok) {
      committed_.resize(base);
      note_failure(nevents, failure.str());
      if (memoize_) failed_.insert(state);
    }
    return ok;
  }

  /// Walks `group` (runs sharing their first `depth` events, whose
  /// committed sequence passes there) to the leaves.  Restores
  /// `committed_` to its entry length: it only ever grows by appending,
  /// so truncation is a full restore.
  bool walk(const std::vector<int>& group, std::size_t depth, int cid) {
    // Runs fully consumed at this depth are satisfied; record their
    // final committed order (op ids in that run).
    std::vector<int> active;
    for (const int idx : group) {
      const PreparedRun& run = runs_[static_cast<std::size_t>(idx)];
      if (run.events.size() <= depth) {
        std::vector<int> ids;
        for (const OpKey& key : committed_) {
          const int id = run.id_of(key);
          if (id >= 0) ids.push_back(id);
        }
        orders_[static_cast<std::size_t>(run.input_index)] = std::move(ids);
      } else {
        active.push_back(idx);
      }
    }
    if (active.empty()) return true;

    const std::size_t entry = committed_.size();
    // Fast path: one active run (the common case for single-history
    // checks) forms a single partition — skip the partition machinery.
    if (active.size() == 1) {
      const bool ok = step(active, depth, cid);
      committed_.resize(entry);
      return ok;
    }

    // Partition the active runs by the signature of their next event.
    std::vector<std::pair<EventSig, std::vector<int>>> partitions;
    for (const int idx : active) {
      const EventSig& sig =
          runs_[static_cast<std::size_t>(idx)].signatures[depth];
      auto it = std::find_if(partitions.begin(), partitions.end(),
                             [&sig](const auto& p) { return p.first == sig; });
      if (it == partitions.end()) {
        partitions.push_back({sig, {idx}});
      } else {
        it->second.push_back(idx);
      }
    }

    // Every branch must succeed starting from the same committed state —
    // decisions inside one branch must not leak into a sibling.
    for (const auto& [sig, subgroup] : partitions) {
      const bool ok = step(subgroup, depth, cid);
      committed_.resize(entry);
      if (!ok) return false;
    }
    return true;
  }

  Probe& probe_;
  const bool memoize_;
  std::vector<PreparedRun> runs_;
  /// Per run: prefix-tree node id after k events (see prefix_tree_nodes).
  std::vector<std::vector<int>> node_ids_;
  std::vector<TrieNode> trie_{TrieNode{}};
  std::unordered_set<std::uint64_t> failed_;  ///< failed subtree states
  std::size_t subtree_hits_ = 0;
  std::vector<OpKey> committed_;  ///< the current branch's sequence
  std::vector<std::vector<int>> orders_;  ///< per input run index
  std::string deepest_failure_;  ///< certificate of the deepest failure
  std::size_t deepest_events_ = 0;
};

}  // namespace rlt::checker::detail
