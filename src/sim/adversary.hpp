// Generic adversaries: random strong adversary and round-robin scheduler.
//
// The paper-specific adversaries (Theorem 6's scripted schedule and the
// best-effort adaptive adversary used to measure termination under write
// strong-linearizability) live in src/game/.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::sim {

/// Whether `p` is one of the `stalled` processes the adversaries below
/// never schedule.
[[nodiscard]] inline bool is_stalled(const std::vector<ProcessId>& stalled,
                                     ProcessId p) {
  return std::find(stalled.begin(), stalled.end(), p) != stalled.end();
}

/// A strong adversary choosing uniformly at random among all enabled
/// actions.  Random scheduling is a fair-in-expectation stress schedule:
/// every pending response eventually fires with probability 1.
///
/// `stalled` processes are never scheduled: they stall forever
/// mid-operation (steps AND responses to their pending ops are
/// withheld), and the run stops once only they have enabled actions.
/// That is the wait-freedom probe behind the sweep's `--faults stall`
/// axis and the termination lab's stalling adversary: everyone else must
/// still finish.  With no stalled process the draws are the plain
/// uniform ones.
class RandomAdversary final : public Adversary {
 public:
  explicit RandomAdversary(std::uint64_t seed,
                           std::vector<ProcessId> stalled = {})
      : stalled_(std::move(stalled)), rng_(seed) {}

  /// Draws uniformly among the live (non-stalled) actions, in menu order.
  std::optional<Action> choose(Scheduler& sched) override {
    const std::vector<Action>& actions = sched.enabled_actions();
    const auto live = [this](const Action& a) {
      return !is_stalled(stalled_, a.process);
    };
    const auto count = static_cast<std::uint64_t>(
        std::count_if(actions.begin(), actions.end(), live));
    if (count == 0) return std::nullopt;
    std::uint64_t k = rng_.uniform(count);
    for (const Action& a : actions) {
      if (live(a) && k-- == 0) return a;
    }
    RLT_CHECK_MSG(false, "live action count changed mid-draw");
    return std::nullopt;
  }

 private:
  std::vector<ProcessId> stalled_;
  util::Rng rng_;
};

/// Replays a fixed sequence of process steps (atomic-register runs only:
/// no pending operations exist, so steps are the only actions).  Used to
/// construct exact schedules such as Figure 4's histories G, H1, H2.
class FixedStepAdversary final : public Adversary {
 public:
  explicit FixedStepAdversary(std::vector<ProcessId> steps)
      : steps_(std::move(steps)) {}

  std::optional<Action> choose(Scheduler& sched) override {
    RLT_CHECK_MSG(sched.pending_ops().empty(),
                  "FixedStepAdversary requires atomic base registers");
    if (next_ >= steps_.size()) return std::nullopt;
    return Action::step(steps_[next_++]);
  }

 private:
  std::vector<ProcessId> steps_;
  std::size_t next_ = 0;
};

/// Draws `count` distinct process ids from 0..n-1 by a partial
/// Fisher–Yates shuffle, in draw order: one `rng.uniform` per victim,
/// nothing else drawn.  The one victim picker shared by
/// pick_strict_minority and the safety sweep's fault planners.
[[nodiscard]] inline std::vector<ProcessId> pick_victims(int n, int count,
                                                         util::Rng& rng) {
  std::vector<ProcessId> ids(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) ids[static_cast<std::size_t>(i)] = i;
  for (int i = 0; i < count; ++i) {
    const std::size_t j =
        static_cast<std::size_t>(i) +
        static_cast<std::size_t>(rng.uniform(static_cast<std::uint64_t>(n - i)));
    std::swap(ids[static_cast<std::size_t>(i)], ids[j]);
  }
  ids.resize(static_cast<std::size_t>(count));
  return ids;
}

/// Picks a seeded strict minority of victims: 1..⌊(n-1)/2⌋ distinct
/// process ids (ascending), a pure function of (n, mix).  Empty when
/// n <= 2 (no strict minority exists).  Shared by the sweep engine's
/// stall-fault axis and the termination lab's stalling adversary so both
/// subsystems freeze the same processes for the same seeds.
[[nodiscard]] inline std::vector<ProcessId> pick_strict_minority(
    int n, std::uint64_t mix) {
  const int max_victims = (n - 1) / 2;
  if (max_victims <= 0) return {};
  util::Rng rng(mix);
  const int count =
      1 + static_cast<int>(rng.uniform(static_cast<std::uint64_t>(max_victims)));
  std::vector<ProcessId> out = pick_victims(n, count, rng);
  std::sort(out.begin(), out.end());
  return out;
}

/// Deterministic round-robin over processes; pending operations are
/// responded as soon as they appear (first enumerated choice).  With
/// atomic registers this is a plain round-robin scheduler.  `stalled`
/// processes are never scheduled, as for RandomAdversary.
class RoundRobinAdversary final : public Adversary {
 public:
  explicit RoundRobinAdversary(std::vector<ProcessId> stalled = {})
      : stalled_(std::move(stalled)) {}

  std::optional<Action> choose(Scheduler& sched) override {
    // Respond the oldest live-owned pending op first, first choice.
    for (const PendingOpInfo& info : sched.pending_ops()) {
      if (is_stalled(stalled_, info.process)) continue;
      const std::vector<ResponseChoice>& choices =
          sched.choices_for(info.op_id);
      RLT_CHECK_MSG(!choices.empty(), "pending op with no choices");
      return Action::respond(info.process, info.op_id, choices.front());
    }
    const int n = sched.process_count();
    for (int i = 0; i < n; ++i) {
      const ProcessId p = static_cast<ProcessId>((next_ + i) % n);
      if (is_stalled(stalled_, p)) continue;
      if (!sched.process_done(p) && !sched.process_blocked(p)) {
        next_ = (p + 1) % n;
        return Action::step(p);
      }
    }
    return std::nullopt;
  }

 private:
  std::vector<ProcessId> stalled_;
  int next_ = 0;
};

}  // namespace rlt::sim
