// Generic adversaries: random strong adversary and round-robin scheduler.
//
// The paper-specific adversaries (Theorem 6's scripted schedule and the
// best-effort adaptive adversary used to measure termination under write
// strong-linearizability) live in src/game/.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/scheduler.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::sim {

/// A strong adversary choosing uniformly at random among all enabled
/// actions.  Random scheduling is a fair-in-expectation stress schedule:
/// every pending response eventually fires with probability 1.
class RandomAdversary final : public Adversary {
 public:
  explicit RandomAdversary(std::uint64_t seed) : rng_(seed) {}

  std::optional<Action> choose(Scheduler& sched) override {
    std::vector<Action> actions = sched.enabled_actions();
    if (actions.empty()) return std::nullopt;
    return actions[rng_.uniform(actions.size())];
  }

 private:
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

/// An adversary that never schedules a chosen set of processes — they
/// stall forever mid-operation (steps AND responses to their pending ops
/// are withheld).  The remaining actions are scheduled by the selected
/// policy; returns std::nullopt (stopping the run) once only stalled
/// processes have enabled actions.  Wait-freedom probe: everyone else
/// must still finish.  Promoted from the ablation tests to back the
/// sweep engine's `--faults stall` axis and the termination lab.
class StallingAdversary final : public Adversary {
 public:
  enum class Policy {
    kRandom,     ///< Uniform among the surviving actions (seeded).
    kRoundRobin, ///< RoundRobinAdversary's rule over live processes.
  };

  StallingAdversary(std::vector<ProcessId> stalled, std::uint64_t seed,
                    Policy policy = Policy::kRandom)
      : stalled_(std::move(stalled)), policy_(policy), rng_(seed) {}

  std::optional<Action> choose(Scheduler& sched) override {
    if (policy_ == Policy::kRoundRobin) return choose_round_robin(sched);
    std::vector<Action> actions;
    for (Action& a : sched.enabled_actions()) {
      if (!is_stalled(a.process)) actions.push_back(std::move(a));
    }
    if (actions.empty()) return std::nullopt;
    return actions[rng_.uniform(actions.size())];
  }

 private:
  [[nodiscard]] bool is_stalled(ProcessId p) const {
    return std::find(stalled_.begin(), stalled_.end(), p) != stalled_.end();
  }

  std::optional<Action> choose_round_robin(Scheduler& sched) {
    // Respond the oldest live-owned pending op first, first choice.
    for (const PendingOpInfo& info : sched.pending_ops()) {
      if (is_stalled(info.process)) continue;
      auto choices = sched.choices_for(info.op_id);
      RLT_CHECK_MSG(!choices.empty(), "pending op with no choices");
      return Action::respond(info.process, info.op_id,
                             std::move(choices.front()));
    }
    const int n = sched.process_count();
    for (int i = 0; i < n; ++i) {
      const ProcessId p = static_cast<ProcessId>((next_ + i) % n);
      if (is_stalled(p)) continue;
      if (!sched.process_done(p) && !sched.process_blocked(p)) {
        next_ = (p + 1) % n;
        return Action::step(p);
      }
    }
    return std::nullopt;
  }

  std::vector<ProcessId> stalled_;
  Policy policy_;
  util::Rng rng_;
  int next_ = 0;
};

/// Deterministic round-robin over processes; pending operations are
/// responded as soon as they appear (first enumerated choice).  With
/// atomic registers this is a plain round-robin scheduler.
class RoundRobinAdversary final : public Adversary {
 public:
  std::optional<Action> choose(Scheduler& sched) override {
    // Respond the oldest pending op first, taking its first choice.
    const auto pending = sched.pending_ops();
    if (!pending.empty()) {
      const PendingOpInfo& info = pending.front();
      auto choices = sched.choices_for(info.op_id);
      RLT_CHECK_MSG(!choices.empty(), "pending op with no choices");
      return Action::respond(info.process, info.op_id,
                             std::move(choices.front()));
    }
    const int n = sched.process_count();
    for (int i = 0; i < n; ++i) {
      const ProcessId p = static_cast<ProcessId>((next_ + i) % n);
      if (!sched.process_done(p) && !sched.process_blocked(p)) {
        next_ = (p + 1) % n;
        return Action::step(p);
      }
    }
    return std::nullopt;
  }

 private:
  int next_ = 0;
};

}  // namespace rlt::sim
