// Internal helpers shared by the write strong-linearizability and strong
// linearizability tree checkers: stable operation identities across runs
// that share a prefix, and event signatures for prefix-tree construction.
// The simulator's WSL register model (sim/wsl_model.cpp) also uses the
// ordered-selection enumerator, for its commitment menus.
//
// Not part of the public API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <vector>

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
inline PreparedRun prepare_run(const History& h, int input_index) {
  PreparedRun run;
  run.h = &h;
  run.input_index = input_index;
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

}  // namespace rlt::checker::detail
