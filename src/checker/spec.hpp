// Sequential specification of a read/write register, plus helpers shared
// by the linearizability / write strong-linearizability / strong
// linearizability checkers.
//
// Definition 2 of the paper (linearization function w.r.t. type register):
//   1. f(H) contains all completed operations of H and possibly some
//      pending ones (with matching responses added);
//   2. real-time precedence in H is preserved in f(H);
//   3. every read returns the value of the last write linearized before
//      it, or the register's initial value if there is none.
//
// `is_legal_sequential` checks exactly these three properties for a given
// candidate order; the solvers in lin_solver.hpp search for such orders.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "history/history.hpp"

namespace rlt::checker {

using history::History;
using history::OpKind;
using history::OpRecord;
using history::Time;
using history::Value;

/// Result of validating a candidate sequential order.
struct SequentialCheck {
  bool ok = false;
  std::string error;  ///< Empty when ok; human-readable reason otherwise.
};

/// Checks that `order` (op ids of `h`, each at most once) is a legal
/// linearization of single-register history `h`:
///  * contains every completed op of `h`, and only ops of `h`
///    (pending ops may be included);
///  * respects real-time precedence among *all* ops it contains;
///  * every pair (o before o') with o.response < o'.invoke where both are
///    included appears in that order;
///  * reads return the last written value (or the initial value).
/// Reads that are pending in `h` must not appear in `order` (a pending
/// read has no response value to validate).
[[nodiscard]] SequentialCheck is_legal_sequential(const History& h,
                                                  const std::vector<int>& order);

/// Tags for `check_tag_order`: reads of the initial value carry
/// kInitialTag, and ops with no tag (a pending read, or a pending write
/// that never published one) carry kNoTag.
inline constexpr std::uint64_t kInitialTag = 0;
inline constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

/// The tag-order witness of a timestamped register (Algorithm 4's
/// ⟨sq, pid⟩, Theorem 12; ABD's writer timestamp, Theorem 14).
/// `tags[id]` is op `id`'s tag: a write's own, or for a completed read
/// the tag of the write whose value it returned; tags order the writes
/// as the register does.  The candidate order puts the reads of the
/// initial value first, then each write in tag order followed by the
/// reads that returned its tag, reads of one tag in invocation (op id)
/// order.  A pending write joins only if a completed read returned its
/// tag.  `is_legal_sequential` then decides.  Two writes sharing a tag,
/// a read of a tag no write has, or a completed op without a tag fail.
[[nodiscard]] SequentialCheck check_tag_order(
    const History& h, const std::vector<std::uint64_t>& tags);

/// One entry of a commit log: write op `write` joined the register's
/// committed write order at the response of op `by` (the write itself, a
/// later write, or a read that returned its value).
struct Commit {
  int write = -1;
  int by = -1;
};

/// The commit-log witness of a register that keeps an append-only
/// committed write order (the WSL model, sim/regmodel.hpp).  It checks
///  (a) the log is in the order of the committing responses, and each
///      write was invoked before its commit;
///  (b) every completed write was committed no later than its own
///      response;
///  (c) every completed read of a committed write's value responded no
///      earlier than that commit;
///  (d) committed values are distinct, and differ from the initial value
///      (otherwise the witness declines: it fails, and the searches
///      decide);
///  (e) `check_tag_order` accepts, each write's tag being its position in
///      the log and each read's the tag of the write whose value it
///      returned.
/// Then the history is write strongly-linearizable.  Let L be (e)'s
/// order, and for an event-prefix G let f(G) be L restricted to the
/// writes committed by G's end plus the reads completed in G.  f(G) holds
/// every op completed in G, by (b) and (c), and only ops invoked in G, by
/// (a).  L puts each read right after its own write or the reads of it,
/// and by (c) that write is in f(G) whenever the read is, so f(G) is
/// legal; it respects real time as L does.  By (a) the writes committed
/// by G's end are a prefix of the log, so the writes of f(G) are a prefix
/// of those of f(G') for every longer prefix G'.
[[nodiscard]] SequentialCheck check_commit_order(const History& h,
                                                 std::span<const Commit> log);

/// The subsequence of `order` consisting of write operations.
[[nodiscard]] std::vector<int> writes_of(const History& h,
                                         const std::vector<int>& order);

/// True iff `prefix` is a prefix of `seq`.
[[nodiscard]] bool is_prefix_of(const std::vector<int>& prefix,
                                const std::vector<int>& seq);

/// Asserts that the history mentions exactly one register and returns its
/// id; throws util::InvariantViolation otherwise.  The WSL and strong
/// checkers operate on single-register histories (the paper's definitions
/// are for implementations of one register).
[[nodiscard]] history::RegisterId single_register_of(const History& h);

}  // namespace rlt::checker
