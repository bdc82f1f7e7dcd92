// One register's on-line checking state: the set of configurations its
// history so far can be in (Wing and Gong's search with Lowe's
// memoization, run just in time: G. Lowe, "Testing for linearizability",
// CCPE 2017).  A configuration holds the register value, which open
// writes it has linearized, and for each open read the values the
// register held while the read was open (the sets nest in invocation
// order, so one entry per value: the `reads` oldest open reads saw it).
// Reads never branch the set.  Invoking a read adds each configuration's
// value to its set; a response keeps the configurations that linearized
// the op (a read: whose set holds its result) and drops the op.  The
// history is linearizable iff the set is non-empty.  `Frontier` and
// `WslFrontier` differ in where a write may go and in what else (a place)
// a configuration carries.  A configuration goes when another with the
// same value and linearized writes has seen each value in at least as
// many reads and covers its place.  The state is bounded by the open ops,
// not the history, but can grow exponentially in them (overlapping writes
// that respond one by one while reads stay open).  Buffers are reused, so
// lone ops allocate nothing.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "checker/spec.hpp"

namespace rlt::checker {
namespace detail {

/// Free order: the open writes that may still go just before the last
/// linearized one, and the open reads invoked before that write.
struct FreePlace {
  std::uint64_t pre = 0;
  std::uint32_t seen_last = 0;
  friend auto operator<=>(const FreePlace&, const FreePlace&) = default;
  [[nodiscard]] bool covers(const FreePlace& b) const noexcept {
    return (b.pre & ~pre) == 0 && seen_last >= b.seen_last;
  }
  void forget(std::uint64_t bit, bool read, std::uint32_t ri) noexcept {
    pre &= ~bit;
    if (read && seen_last > ri) --seen_last;
  }
};

/// Committed order: the uncommitted writes linearized, in order (a node of
/// `WslFrontier`'s trie; 0: none).  A response commits them.
struct GonePlace {
  std::int32_t gone = 0;
  friend auto operator<=>(const GonePlace&, const GonePlace&) = default;
  [[nodiscard]] bool covers(const GonePlace& b) const noexcept {
    return gone == b.gone;
  }
  void forget(std::uint64_t, bool, std::uint32_t) noexcept { gone = 0; }
};

/// The register's open ops and configurations, each carrying a `Place`.
template <class Place>
class ConfigSet {
 public:
  /// Open ops (one bit each) and configurations a register may hold; past
  /// these, unvalidated.  The most measured is 620,928 (`--online
  /// --processes 16 --algorithms abd,alg4,alg2 --seeds 0:12`); p12 peaks
  /// at 25,904, the register models at 20.
  static constexpr int kMaxOpen = 64;
  static constexpr std::size_t kMaxConfigs = std::size_t{1} << 20;

  /// The one configuration of an empty history with value `initial`.
  explicit ConfigSet(Value initial = 0, std::size_t max_configs = kMaxConfigs);

  /// Opens op `id` (ids grow with invocation); `value` is a write's.
  /// Returns false, changing nothing, when `kMaxOpen` ops are open.
  [[nodiscard]] bool invoke(int id, OpKind kind, Value value);

  /// Whether the history so far has a linearization (unless overflowed).
  [[nodiscard]] bool feasible() const noexcept { return !set_.configs.empty(); }
  [[nodiscard]] bool overflowed() const noexcept { return overflowed_; }
  [[nodiscard]] int open() const noexcept { return std::popcount(used_); }
  [[nodiscard]] bool is_write(int id) const { return op(id).kind == OpKind::kWrite; }
  [[nodiscard]] Value written(int id) const { return op(id).value; }
  /// The most configurations held after an event.
  [[nodiscard]] std::size_t peak_configs() const noexcept { return peak_; }

 protected:
  /// `value` is in the sets of the `reads` oldest open reads.
  struct Seen {
    Value value = 0;
    std::uint32_t reads = 0;
    friend auto operator<=>(const Seen&, const Seen&) = default;
  };
  struct Config {
    Value value = 0;
    std::uint64_t lin = 0;    ///< open writes linearized, by slot
    Place place{};
    std::uint32_t first = 0;  ///< entries [first, first + count) of `seen`
    std::uint32_t count = 0;
  };
  /// A generation of configurations and the entries they share.
  struct Set {
    std::vector<Config> configs;
    std::vector<Seen> seen;
    [[nodiscard]] std::span<const Seen> entries(const Config& c) const {
      return {seen.data() + c.first, c.count};
    }
  };
  struct Op {
    int id = -1;
    OpKind kind = OpKind::kRead;
    Value value = 0;
  };

  [[nodiscard]] int slot_of(int id) const;
  [[nodiscard]] const Op& op(int id) const {
    return ops_[static_cast<std::size_t>(slot_of(id))];
  }
  /// The index of open read `slot` among the open reads.
  [[nodiscard]] std::uint32_t read_index(int slot) const;
  /// Whether `c` lets op `slot` (a read: the `ri`th open one) respond
  /// `result` as it stands.
  [[nodiscard]] bool responds(const Set& from, const Config& c, int slot,
                              std::uint32_t ri, Value result) const;
  void add(Set& out, const Config& c, std::span<const Seen> entries);
  /// Moves into `to` (cleared first) the configurations of `from` that
  /// neither repeat nor are covered; empties `from`.
  void normalize(Set& from, Set& to);
  /// Adds `c` to `next_` without op `slot` (a read: the `ri`th open one).
  void keep(Config c, std::span<const Seen> entries, int slot,
            std::uint32_t ri);
  /// Drops responded op `slot`; `next_` becomes the set.
  void finish(int slot, std::uint32_t ri);
  /// Makes `entries`' entry for `value` cover at least the `reads` oldest
  /// open reads.
  static void see(std::vector<Seen>& entries, Value value,
                  std::uint32_t reads);

  std::array<Op, kMaxOpen> ops_{};  ///< by slot
  std::uint64_t used_ = 0;    ///< occupied slots
  std::uint64_t writes_ = 0;  ///< open writes
  std::vector<int> reads_;    ///< open reads, invocation order
  Set set_;
  Set next_;                  ///< the set an event is building
  std::uint64_t events_ = 0;  ///< events so far
  std::vector<Seen> scratch_;
  std::vector<Value> values_;  ///< a menu's values

 private:
  /// `normalize`'s record of a configuration.
  struct Key {
    Value value = 0;
    std::uint64_t lin = 0;
    std::uint64_t hash = 0;
    std::uint32_t index = 0;
    bool dropped = false;  ///< repeats or is covered
  };

  std::vector<Key> keys_;
  std::vector<Seen> kept_;
  std::size_t max_configs_;
  std::size_t peak_ = 1;
  bool overflowed_ = false;
};

}  // namespace detail

/// Linearizability (free order).  A write is linearized only at a
/// response that needs it (its own, or a read's that returns its value):
/// now, or just before the last linearized write if invoked before it,
/// hidden by it and seen by the reads open then (an earlier place decides
/// nothing more).  A read's menu: its sets and unlinearized writes' values.
class Frontier : public detail::ConfigSet<detail::FreePlace> {
 public:
  using ConfigSet::ConfigSet;

  /// Responds open op `id` (reads: returning `result`).
  void respond(int id, Value result);
  /// The values open read `id` may return next, ascending.  Valid until
  /// the next event or question.
  [[nodiscard]] std::span<const Value> read_values(int id);
};

/// Write strong-linearizability (committed order).  Before a question the
/// set is closed under "linearize one more open write": the next committed
/// one, or, once all have gone, any uncommitted one, which joins the gone
/// sequence.  A response committing batch s keeps the configurations
/// whose gone sequence prefixes s and appends s to the committed sequence.
///
/// Why filtering at every response loses nothing that the exact-order
/// check accepts: take a linearization it accepts and the first write u
/// placed before some response r that did not commit it, and move u and
/// everything between it and r to just after r.  No write among them
/// responded by r, since that write is committed by r and so precedes u.
/// A read among them that responded by r returned a value found among the
/// writes committed by r (a read that returns an uncommitted write's value
/// commits it), so with distinct values it precedes u too.  With repeated
/// values it must move to an equal value before u; this is not proved
/// here, and tests/frontier_test.cpp holds every menu to exact-order
/// solves on random runs of 3, 4 and 5 processes whose values repeat.
class WslFrontier : public detail::ConfigSet<detail::GonePlace> {
 public:
  using ConfigSet::ConfigSet;

  /// Responds open op `id` (reads: `result`), committing `batch` in order.
  void respond(int id, Value result, std::span<const int> batch);

  /// A response: `value`, committing the writes `batch(c)`.
  struct Commitment {
    Value value = 0;
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };
  /// Every response open op `id` may make next, batch by batch: the empty
  /// one (a committed write has no other), then each of
  /// `detail::for_each_ordered_selection` over the uncommitted writes by id
  /// (an uncommitted write: those holding it), values ascending in each.
  /// Valid until the next event or question.
  [[nodiscard]] std::span<const Commitment> commitments(int id);
  [[nodiscard]] std::span<const int> batch(const Commitment& c) const {
    return {batches_.data() + c.first, c.count};
  }

 private:
  /// A trie node: its parent's gone sequence plus `slot`.
  struct Node {
    std::int32_t slot = -1;
    std::int32_t first_child = -1;
    std::int32_t next_sibling = -1;
  };

  /// The closure, built on first use after an event.
  const Set& closure();
  /// The trie child of `node` (-1: none) by `slot`; creates it if
  /// `create`, else -1.
  std::int32_t child(std::int32_t node, int slot, bool create);

  std::uint64_t committed_ = 0;  ///< committed open writes
  std::vector<int> order_;       ///< committed open writes, committed order
  Set closed_;
  std::uint64_t closed_at_ = ~0ULL;  ///< `events_` when `closed_` was built
  std::vector<Node> trie_;        ///< rebuilt with each closure
  // Buffers: a batch's trie path, and `commitments`' candidates and answer.
  std::vector<std::int32_t> node_;
  std::vector<int> candidates_;
  std::vector<Commitment> choices_;
  std::vector<int> batches_;
};

}  // namespace rlt::checker
