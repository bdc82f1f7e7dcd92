// Algorithm 4: the Lamport-clock MWMR register from SWMR registers —
// linearizable (Theorem 12) but NOT write strongly-linearizable
// (Theorem 13) — simulator build.
//
// Identical structure to Algorithm 2, except each write timestamps its
// value with ⟨sq, pid⟩ where sq = 1 + max sequence number read across
// Val[0..n-1].  The scalar clock carries too little information to order
// concurrent writes on-line: Figure 4's branching histories (reproduced
// by tests and bench/fig4_theorem13) show that any candidate
// linearization function must already have committed the relative order
// of two concurrent writes by the end of their common prefix G, yet one
// extension forces each order — so no write strong-linearization
// function exists.
#pragma once

#include <vector>

#include "history/recorder.hpp"
#include "registers/vector_ts.hpp"
#include "sim/scheduler.hpp"

namespace rlt::registers {

/// The simulator build of Algorithm 4.
class SimAlg4Register {
 public:
  /// Adds `n` atomic base registers with ids first_base..first_base+n-1
  /// to `sched`.
  SimAlg4Register(sim::Scheduler& sched, int n, sim::RegId first_base,
                  history::Value initial);

  /// Algorithm 4's write, by `self` as writer slot `k`.
  sim::ValueTask<void> write(sim::Proc& self, int k, history::Value v);

  /// Algorithm 4's read.
  sim::ValueTask<history::Value> read(sim::Proc& self);

  /// The implemented register's high-level history (register id 0).
  [[nodiscard]] const history::History& hl_history() const {
    return recorder_.history();
  }

  [[nodiscard]] int n() const noexcept { return n_; }

  /// Each op's ⟨sq, pid⟩ tag by hl op id, as checker::check_tag_order
  /// reads it (Theorem 12): sq·n + pid, so the order is ⟨sq, pid⟩'s;
  /// sq 0 (an initial tuple) reads as checker::kInitialTag.
  [[nodiscard]] std::vector<std::uint64_t> tags() const;

 private:
  [[nodiscard]] sim::RegId base(int i) const noexcept {
    return first_base_ + i;
  }

  sim::Scheduler& sched_;
  int n_;
  sim::RegId first_base_;
  history::Recorder recorder_;
  /// Tuple table: base registers hold indices into this vector.
  std::vector<std::pair<history::Value, LamportTs>> tuples_;
  /// By hl op id: the tuple a write published or a read returned (-1:
  /// none yet).
  std::vector<int> op_tuple_;
  std::vector<bool> writer_busy_;
};

}  // namespace rlt::registers
