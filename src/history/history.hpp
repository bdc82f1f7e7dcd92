// A register history: a set of operation records over named registers,
// with event-level prefix extraction.
//
// Prefixes matter because strong linearizability and write
// strong-linearizability (Definitions 3 and 4 of the paper) are properties
// of *prefix-closed sets* of histories: the checkers enumerate every
// event-prefix of a recorded run (and trees of runs sharing prefixes).
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "history/event.hpp"

namespace rlt::history {

/// An immutable-ish container of operations forming one history.
///
/// Invariants (checked by `validate`):
///  * op ids are dense 0..n-1 and match their index;
///  * all event times are distinct;
///  * response times are after invocation times.
class History {
 public:
  History() = default;

  /// Appends an operation record; assigns and returns its id.
  int add(OpRecord op);

  /// Marks a previously added pending operation as responded at `now`.
  /// For reads, `result` becomes the returned value. Throws if the op is
  /// already complete or `now` is not after its invocation.
  void complete_op(int id, Value result, Time now);

  [[nodiscard]] const std::vector<OpRecord>& ops() const noexcept {
    return ops_;
  }
  [[nodiscard]] const OpRecord& op(int id) const { return ops_.at(id); }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }

  /// Initial value of a register (Definition 2, property 3). Defaults to 0.
  void set_initial(RegisterId reg, Value v) { initial_[reg] = v; }
  [[nodiscard]] Value initial(RegisterId reg) const;

  /// All invocation/response events sorted by time.
  [[nodiscard]] std::vector<Event> events() const;

  /// The prefix of this history containing exactly the events with
  /// time <= t: operations invoked after t are dropped; operations that
  /// respond after t become pending (their read return values are erased,
  /// since a pending read has no response value).
  [[nodiscard]] History prefix_at(Time t) const;

  /// Convenience: prefixes at every event time, shortest first.  The final
  /// element equals this history. An empty-history prefix is included
  /// only if `include_empty`.
  [[nodiscard]] std::vector<History> all_prefixes(
      bool include_empty = false) const;

  /// Sub-history of a single register (op ids are re-densified; the
  /// returned history's op `k` maps to original id `mapping[k]`).
  [[nodiscard]] History restrict_to_register(
      RegisterId reg, std::vector<int>* mapping = nullptr) const;

  /// Registers mentioned in this history, ascending.
  [[nodiscard]] std::vector<RegisterId> registers() const;

  /// Throws util::InvariantViolation if internal invariants are broken.
  void validate() const;

  /// Count of completed (responded) operations.
  [[nodiscard]] std::size_t completed_count() const noexcept;

  /// Multi-line human-readable rendering (one op per line, time-sorted).
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const History&, const History&) = default;

 private:
  std::vector<OpRecord> ops_;
  std::map<RegisterId, Value> initial_;
};

std::ostream& operator<<(std::ostream& os, const History& h);

}  // namespace rlt::history
