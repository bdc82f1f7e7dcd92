#include "checker/lin_solver.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "obs/metrics.hpp"
#include "util/assert.hpp"

namespace rlt::checker {

namespace {

using history::HistoryView;

/// Dense per-solve view of the history plus constraint bookkeeping.
///
/// Everything the DFS consults per node is precomputed here at context
/// build time:
///  * `pred[id]` — bitmask of completed ops that strictly precede op
///    `id` in real time, so the availability rule is one AND per
///    candidate instead of a scan over unplaced completed ops;
///  * `reads_by_value` — placeable reads grouped by returned value, so
///    candidate generation starts from a table lookup instead of an
///    O(n) kind/value filter;
///  * `write_mask` — placeable writes (kFree candidates are
///    value-independent; kExact restricts to the next write of the exact
///    order, whose index the DFS threads down instead of recomputing).
struct SolveContext {
  HistoryView view;
  WriteOrderMode mode = WriteOrderMode::kFree;
  const std::vector<int>* exact = nullptr;  // op ids, kExact only
  std::uint64_t completed_mask = 0;  // ops that must be placed
  std::uint64_t must_place_mask = 0; // completed + listed pending writes
  std::uint64_t placeable_mask = 0;  // ops that may ever be placed
  std::uint64_t write_mask = 0;      // placeable writes
  std::uint64_t all_writes_mask = 0; // every write included in the view
  /// Per op id: completed predecessors.  Inline (no heap).
  std::array<std::uint64_t, kMaxSolverOps> pred{};
  /// Placeable reads grouped by returned value, sorted by value; inline.
  std::array<std::pair<Value, std::uint64_t>, kMaxSolverOps> reads_by_value{};
  int nread_groups = 0;
  /// Placeable writes grouped by written value, sorted by value; inline.
  /// Consulted by the doomed-state prune.
  std::array<std::pair<Value, std::uint64_t>, kMaxSolverOps> writes_by_value{};
  int nwrite_groups = 0;
  /// kExact only: exact_suffix[i] = ops of exact[i..] as a bitmask — the
  /// writes still placeable once `exact_next` reaches `i`.
  std::array<std::uint64_t, kMaxSolverOps + 1> exact_suffix{};
  bool prune = true;
  Value initial = 0;  ///< the register's initial value
  int n = 0;

  /// Search statistics, tallied locally (plain increments on this
  /// context — no registry traffic inside the DFS) and flushed to the
  /// obs registry once per solver entry when observability is on.
  std::uint64_t stat_nodes = 0;
  std::uint64_t stat_memo_hits = 0;
  std::uint64_t stat_prune_doomed = 0;
  std::uint64_t stat_prune_eager = 0;
  std::uint64_t stat_prune_accept = 0;

  // State key for memoization of failed states.
  struct Key {
    std::uint64_t mask;
    Value value;
    friend bool operator==(const Key&, const Key&) = default;
  };
  static std::uint64_t mix_key(const Key& k) noexcept {
    // 64-bit mix of both fields (splitmix-style).
    std::uint64_t x = k.mask * 0x9E3779B97F4A7C15ULL;
    x ^= static_cast<std::uint64_t>(k.value) + 0xBF58476D1CE4E5B9ULL +
         (x << 6) + (x >> 2);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    return x ^ (x >> 31);
  }

  /// Open-addressing state-key set.  Most solves memoize a handful of
  /// states; std::unordered_set spends more time constructing and
  /// tearing down buckets than probing.  Inline storage for 64 slots,
  /// heap growth only for genuinely hard instances.
  class SeenSet {
   public:
    bool insert(const Key& k) {  // true iff newly inserted
      if (size_ * 4 >= capacity_ * 3) grow();
      Slot* slot = find_slot(slots(), capacity_, k);
      if (slot->used) return false;
      *slot = Slot{k, true};
      ++size_;
      return true;
    }
    [[nodiscard]] bool contains(const Key& k) const {
      return find_slot(slots(), capacity_, k)->used;
    }

   private:
    struct Slot {
      Key key{0, 0};
      bool used = false;
    };
    static Slot* find_slot(Slot* slots, std::size_t capacity, const Key& k) {
      std::size_t i = static_cast<std::size_t>(mix_key(k)) & (capacity - 1);
      while (slots[i].used && !(slots[i].key == k)) {
        i = (i + 1) & (capacity - 1);
      }
      return &slots[i];
    }
    static const Slot* find_slot(const Slot* slots, std::size_t capacity,
                                 const Key& k) {
      return find_slot(const_cast<Slot*>(slots), capacity, k);
    }
    [[nodiscard]] Slot* slots() noexcept {
      return heap_.empty() ? inline_.data() : heap_.data();
    }
    [[nodiscard]] const Slot* slots() const noexcept {
      return heap_.empty() ? inline_.data() : heap_.data();
    }
    void grow() {
      const std::size_t next = capacity_ * 2;
      std::vector<Slot> bigger(next);
      for (std::size_t i = 0; i < capacity_; ++i) {
        const Slot& s = slots()[i];
        if (s.used) *find_slot(bigger.data(), next, s.key) = s;
      }
      heap_ = std::move(bigger);
      capacity_ = next;
    }

    std::array<Slot, 64> inline_{};
    std::vector<Slot> heap_;
    std::size_t capacity_ = 64;
    std::size_t size_ = 0;
  };
  SeenSet seen;

  [[nodiscard]] bool done(std::uint64_t mask) const noexcept {
    return (mask & must_place_mask) == must_place_mask;
  }

  [[nodiscard]] std::uint64_t reads_of(Value v) const noexcept {
    const auto begin = reads_by_value.begin();
    const auto end = begin + nread_groups;
    const auto it = std::lower_bound(
        begin, end, v,
        [](const auto& entry, Value value) { return entry.first < value; });
    return it != end && it->first == v ? it->second : 0;
  }

  /// Ops placeable next from state (mask, value): matching-value reads
  /// plus the allowed write(s), availability-filtered — O(1) per edge.
  [[nodiscard]] std::uint64_t candidates(std::uint64_t mask, Value value,
                                         int exact_next) const noexcept {
    std::uint64_t cand = reads_of(value);
    if (mode == WriteOrderMode::kExact) {
      if (exact_next < static_cast<int>(exact->size())) {
        cand |= 1ULL << (*exact)[static_cast<std::size_t>(exact_next)];
      }
    } else {
      cand |= write_mask;
    }
    cand &= ~mask;
    std::uint64_t out = 0;
    while (cand != 0) {
      const int id = std::countr_zero(cand);
      cand &= cand - 1;
      // Available iff every completed predecessor is already placed.
      if ((pred[static_cast<std::size_t>(id)] & ~mask) == 0) {
        out |= 1ULL << id;
      }
    }
    return out;
  }

  [[nodiscard]] std::uint64_t writes_of(Value v) const noexcept {
    const auto begin = writes_by_value.begin();
    const auto end = begin + nwrite_groups;
    const auto it = std::lower_bound(
        begin, end, v,
        [](const auto& entry, Value value) { return entry.first < value; });
    return it != end && it->first == v ? it->second : 0;
  }

  /// Doomed-state prune: true iff some unplaced completed read returns a
  /// value that is neither the current register value nor produced by any
  /// still-placeable write — no completion (and hence no done-state) is
  /// reachable from (mask, value).  `future_writes` is the mask of writes
  /// that may still be placed from this state.
  [[nodiscard]] bool doomed(std::uint64_t mask, Value value,
                            std::uint64_t future_writes) const noexcept {
    for (int g = 0; g < nread_groups; ++g) {
      const auto& [v, rmask] = reads_by_value[static_cast<std::size_t>(g)];
      if ((rmask & ~mask) == 0) continue;  // every read of v already placed
      if (v == value) continue;            // current value serves it
      if ((writes_of(v) & future_writes) != 0) continue;  // a write can
      return true;
    }
    return false;
  }

  /// Accept shortcut (every completed read placed):
  /// tries to discharge the remaining write obligations directly.  Free
  /// mode always succeeds — the remaining must-place ops are completed
  /// writes, placeable in response-time order (any blocker responds
  /// earlier and is therefore placed first).  Exact mode walks the
  /// remaining committed suffix, which is the only extension the DFS
  /// could try anyway (no read candidates remain), so failure here is
  /// failure of the whole subtree.  Appends the placed ops to `order`
  /// (rolled back by the caller on failure).
  [[nodiscard]] bool try_accept_suffix(std::uint64_t mask, int exact_next,
                                       std::vector<int>* order) const {
    if (mode == WriteOrderMode::kExact) {
      std::uint64_t m = mask;
      for (std::size_t i = static_cast<std::size_t>(exact_next);
           i < exact->size(); ++i) {
        const int w_id = (*exact)[i];
        if ((pred[static_cast<std::size_t>(w_id)] & ~m) != 0) return false;
        m |= 1ULL << w_id;
        if (order != nullptr) order->push_back(w_id);
      }
      return true;
    }
    std::uint64_t rem = must_place_mask & ~mask;  // completed writes only
    std::array<int, kMaxSolverOps> by_resp{};
    int nrem = 0;
    while (rem != 0) {
      const int id = std::countr_zero(rem);
      rem &= rem - 1;
      int j = nrem++;
      while (j > 0 && view.response(by_resp[static_cast<std::size_t>(j - 1)]) >
                          view.response(id)) {
        by_resp[static_cast<std::size_t>(j)] =
            by_resp[static_cast<std::size_t>(j - 1)];
        --j;
      }
      by_resp[static_cast<std::size_t>(j)] = id;
    }
    if (order != nullptr) {
      for (int i = 0; i < nrem; ++i) {
        order->push_back(by_resp[static_cast<std::size_t>(i)]);
      }
    }
    return true;
  }
};

SolveContext make_context(const LinProblem& problem) {
  RLT_CHECK(problem.history != nullptr);
  const History& h = *problem.history;
  const auto reg = single_register_of(h);
  RLT_CHECK_MSG(h.size() <= kMaxSolverOps,
                "solver supports at most " << kMaxSolverOps << " ops, got "
                                           << h.size());
  SolveContext ctx;
  ctx.view = HistoryView(h, problem.cutoff);
  ctx.mode = problem.mode;
  ctx.n = static_cast<int>(h.size());
  ctx.prune = problem.prune;
  ctx.initial = h.initial(reg);

  for (int id = 0; id < ctx.n; ++id) {
    if (!ctx.view.included(id)) continue;
    const std::uint64_t bit = 1ULL << id;
    if (ctx.view.is_write(id)) ctx.all_writes_mask |= bit;
    if (ctx.view.completed(id)) {
      ctx.completed_mask |= bit;
      if (ctx.view.is_read(id)) ctx.placeable_mask |= bit;
    }
  }
  ctx.must_place_mask = ctx.completed_mask;

  ctx.exact = &problem.exact_write_order;
  if (problem.mode == WriteOrderMode::kExact) {
    std::uint64_t exact_seen = 0;
    for (const int id : *ctx.exact) {
      RLT_CHECK_MSG(id >= 0 && id < ctx.n, "exact order op id out of range");
      RLT_CHECK_MSG(ctx.view.is_write(id),
                    "exact order contains non-write op" << id);
      RLT_CHECK_MSG(ctx.view.included(id),
                    "exact order op" << id << " not invoked within the view");
      const std::uint64_t bit = 1ULL << id;
      RLT_CHECK_MSG((exact_seen & bit) == 0, "exact order repeats op" << id);
      exact_seen |= bit;
      ctx.placeable_mask |= bit;
      ctx.must_place_mask |= bit;
      ctx.write_mask |= bit;
    }
    for (std::size_t i = ctx.exact->size(); i-- > 0;) {
      ctx.exact_suffix[i] =
          ctx.exact_suffix[i + 1] | (1ULL << (*ctx.exact)[i]);
    }
  } else {
    for (int id = 0; id < ctx.n; ++id) {
      if (ctx.view.included(id) && ctx.view.is_write(id)) {
        const std::uint64_t bit = 1ULL << id;
        ctx.placeable_mask |= bit;
        ctx.write_mask |= bit;
      }
    }
  }

  // Predecessor bitmasks: pred[o] = completed ops responding before o's
  // invocation.  Only completed ops ever block placement.
  for (int o = 0; o < ctx.n; ++o) {
    if ((ctx.placeable_mask & (1ULL << o)) == 0) continue;
    std::uint64_t preds = 0;
    std::uint64_t comp = ctx.completed_mask & ~(1ULL << o);
    while (comp != 0) {
      const int q = std::countr_zero(comp);
      comp &= comp - 1;
      if (ctx.view.response(q) < ctx.view.invoke(o)) preds |= 1ULL << q;
    }
    ctx.pred[static_cast<std::size_t>(o)] = preds;
  }

  // Ops grouped by value (sorted, deduplicated): placeable reads for
  // candidate generation, placeable writes for the doomed-state prune.
  // Tiny arrays: insertion sort beats std::sort's dispatch overhead.
  const auto group_by_value =
      [](std::array<std::pair<Value, std::uint64_t>, kMaxSolverOps>& groups,
         int ngroups) {
        for (int i = 1; i < ngroups; ++i) {
          auto entry = groups[static_cast<std::size_t>(i)];
          int j = i - 1;
          while (j >= 0 &&
                 groups[static_cast<std::size_t>(j)].first > entry.first) {
            groups[static_cast<std::size_t>(j + 1)] =
                groups[static_cast<std::size_t>(j)];
            --j;
          }
          groups[static_cast<std::size_t>(j + 1)] = entry;
        }
        int w = 0;
        for (int r = 1; r < ngroups; ++r) {
          if (groups[static_cast<std::size_t>(r)].first ==
              groups[static_cast<std::size_t>(w)].first) {
            groups[static_cast<std::size_t>(w)].second |=
                groups[static_cast<std::size_t>(r)].second;
          } else {
            groups[static_cast<std::size_t>(++w)] =
                groups[static_cast<std::size_t>(r)];
          }
        }
        return ngroups == 0 ? 0 : w + 1;
      };
  int ngroups = 0;
  std::uint64_t reads = ctx.placeable_mask & ~ctx.write_mask;
  while (reads != 0) {
    const int id = std::countr_zero(reads);
    reads &= reads - 1;
    ctx.reads_by_value[static_cast<std::size_t>(ngroups++)] = {
        ctx.view.value(id), 1ULL << id};
  }
  ctx.nread_groups = group_by_value(ctx.reads_by_value, ngroups);
  ngroups = 0;
  std::uint64_t writes = ctx.write_mask;
  while (writes != 0) {
    const int id = std::countr_zero(writes);
    writes &= writes - 1;
    ctx.writes_by_value[static_cast<std::size_t>(ngroups++)] = {
        ctx.view.value(id), 1ULL << id};
  }
  ctx.nwrite_groups = group_by_value(ctx.writes_by_value, ngroups);
  return ctx;
}

/// True iff the kExact constraints are not already unsatisfiable: every
/// write completed within the view must appear in the exact order.
bool exact_order_covers_completed(const SolveContext& ctx) {
  if (ctx.mode != WriteOrderMode::kExact) return true;
  return (ctx.completed_mask & ctx.all_writes_mask & ~ctx.write_mask) == 0;
}

/// DFS over (placed-set, register-value) states: stops at the first
/// done-state; `order` (optional) accumulates the witness; failed states
/// are memoized in ctx.seen.
bool dfs(SolveContext& ctx, std::uint64_t mask, Value value, int exact_next,
         std::vector<int>* order) {
  const SolveContext::Key key{mask, value};
  ++ctx.stat_nodes;
  if (ctx.done(mask)) return true;
  if (ctx.seen.contains(key)) {
    ++ctx.stat_memo_hits;
    return false;
  }

  if (ctx.prune) {
    const std::uint64_t future_writes =
        ctx.mode == WriteOrderMode::kExact
            ? ctx.exact_suffix[static_cast<std::size_t>(exact_next)]
            : ctx.write_mask & ~mask;
    if (ctx.doomed(mask, value, future_writes)) {
      ++ctx.stat_prune_doomed;
      ctx.seen.insert(key);
      return false;
    }
    // Every completed read placed: only write obligations remain.
    if ((ctx.must_place_mask & ~ctx.write_mask & ~mask) == 0) {
      ++ctx.stat_prune_accept;
      const std::size_t mark = order != nullptr ? order->size() : 0;
      if (ctx.try_accept_suffix(mask, exact_next, order)) return true;
      if (order != nullptr) order->resize(mark);
      ctx.seen.insert(key);
      return false;
    }
  }

  std::uint64_t cand = ctx.candidates(mask, value, exact_next);
  if (ctx.prune) {
    // Eager read: placing an available read of the current value first
    // dominates every other extension order — branch only on the lowest.
    const std::uint64_t cand_reads = cand & ~ctx.write_mask;
    if (cand_reads != 0) {
      ++ctx.stat_prune_eager;
      cand = cand_reads & (~cand_reads + 1);
    }
  }
  while (cand != 0) {
    const int id = std::countr_zero(cand);
    cand &= cand - 1;
    const bool is_write = ctx.view.is_write(id);
    const Value next_value = is_write ? ctx.view.value(id) : value;
    const int next_exact =
        exact_next + (is_write && ctx.mode == WriteOrderMode::kExact ? 1 : 0);
    if (order != nullptr) order->push_back(id);
    if (dfs(ctx, mask | (1ULL << id), next_value, next_exact, order)) {
      return true;
    }
    if (order != nullptr) order->pop_back();
  }

  ctx.seen.insert(key);
  return false;
}

/// Flushes one solver entry's tallies to the metrics registry on every
/// exit path.  The tallies themselves are plain members of the on-stack
/// context, so the solver's hot path never touches the registry.
struct StatFlush {
  const SolveContext& ctx;
  ~StatFlush() {
    if (!obs::enabled()) return;
    obs::count(obs::Counter::kCheckerSolverCalls);
    obs::count(obs::Counter::kCheckerDfsNodes, ctx.stat_nodes);
    obs::count(obs::Counter::kCheckerMemoHits, ctx.stat_memo_hits);
    obs::count(obs::Counter::kCheckerPruneDoomed, ctx.stat_prune_doomed);
    obs::count(obs::Counter::kCheckerPruneEagerRead, ctx.stat_prune_eager);
    obs::count(obs::Counter::kCheckerPruneAccept, ctx.stat_prune_accept);
  }
};

}  // namespace

LinSolution solve(const LinProblem& problem) {
  SolveContext ctx = make_context(problem);
  const StatFlush flush{ctx};
  LinSolution out;
  if (!exact_order_covers_completed(ctx)) return out;
  std::vector<int> order;
  if (!dfs(ctx, 0, ctx.initial, 0, &order)) return out;
  out.ok = true;
  out.order = std::move(order);
  return out;
}

bool feasible(const LinProblem& problem) {
  SolveContext ctx = make_context(problem);
  const StatFlush flush{ctx};
  return exact_order_covers_completed(ctx) &&
         dfs(ctx, 0, ctx.initial, 0, nullptr);
}

}  // namespace rlt::checker
