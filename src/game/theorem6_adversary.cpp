#include "game/theorem6_adversary.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace rlt::game {

namespace {

using sim::Action;
using sim::PendingOpInfo;
using sim::ProcessId;
using sim::ResponseChoice;
using sim::Scheduler;

/// The pending operation of process `p` on register `reg` (there is at
/// most one: processes are sequential).  A copy, since the scheduler's
/// list changes with the next action.
PendingOpInfo pending_of(Scheduler& sched, ProcessId p, int reg) {
  for (const PendingOpInfo& info : sched.pending_ops()) {
    if (info.process == p && info.reg == reg) return info;
  }
  RLT_CHECK_MSG(false, "expected a pending op of p" << p << " on R" << reg);
  return {};
}

/// The response choice returning `value`, preferring the smallest commit
/// extension (the adversary commits as little as possible, as late as
/// possible).  Returns nullopt if no choice yields `value`.
std::optional<ResponseChoice> choice_with_value(Scheduler& sched, int op_id,
                                                sim::Value value) {
  const ResponseChoice* best = nullptr;
  for (const ResponseChoice& c : sched.choices_for(op_id)) {
    if (c.value != value) continue;
    if (best == nullptr ||
        c.commit_extension.size() < best->commit_extension.size()) {
      best = &c;
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

/// First (arbitrary legal) choice; used where the value is forced.
ResponseChoice first_choice(Scheduler& sched, int op_id) {
  const std::vector<ResponseChoice>& choices = sched.choices_for(op_id);
  RLT_CHECK_MSG(!choices.empty(), "pending op " << op_id << " has no choices");
  // Prefer the smallest commitment, as above.
  return *std::min_element(choices.begin(), choices.end(),
                           [](const ResponseChoice& a,
                              const ResponseChoice& b) {
                             return a.commit_extension.size() <
                                    b.commit_extension.size();
                           });
}

}  // namespace

const char* to_string(CommitStrategy s) noexcept {
  switch (s) {
    case CommitStrategy::kHostZeroFirst:
      return "host0-first";
    case CommitStrategy::kHostOneFirst:
      return "host1-first";
    case CommitStrategy::kRandomOrder:
      return "random-order";
    case CommitStrategy::kAlternate:
      return "alternate";
  }
  return "?";
}

std::optional<Action> GameScriptAdversary::choose(Scheduler& sched) {
  if (bound_ == nullptr) {
    bound_ = &sched;
    script_.emplace(script(sched));
  }
  RLT_CHECK_MSG(bound_ == &sched, "adversary bound to a different scheduler");
  if (!script_->advance()) return std::nullopt;
  return std::move(script_->value());
}

sim::Generator<Action> GameScriptAdversary::script(Scheduler& sched) {
  const int n = cfg_.n;
  std::vector<ProcessId> players;
  for (int p = 2; p < n; ++p) players.push_back(p);

  for (int j = 1; j <= cfg_.max_rounds; ++j) {
    // ---- Phase 1, paper Figure 1 ----
    // Step 1: players write ⊥ into R1 then C; each write completes
    // immediately (sequential responses keep commitment batches trivial).
    for (const int reg : {kR1, kC}) {
      for (const ProcessId p : players) {
        co_yield Action::step(p);  // invoke write(reg, ⊥)
        const PendingOpInfo op = pending_of(sched, p, reg);
        co_yield Action::respond(p, op.op_id, first_choice(sched, op.op_id));
      }
    }

    // Step 2 (time t0): p0 and p1 start writing R1; players start their
    // first read of R1.  All three kinds of operations are now pending
    // and mutually concurrent.
    co_yield Action::step(0);
    const int w0 = pending_of(sched, 0, kR1).op_id;
    co_yield Action::step(1);
    const int w1 = pending_of(sched, 1, kR1).op_id;
    for (const ProcessId p : players) co_yield Action::step(p);

    // Step 3 (time t1): p0's write of [0, j] completes.  For linearizable
    // registers this commits nothing.  For WSL registers the model forces
    // the order of the concurrent write [1, j] to be decided HERE — before
    // the coin flip below.
    bool w0_first = true;
    switch (strategy_) {
      case CommitStrategy::kHostZeroFirst:
        w0_first = true;
        break;
      case CommitStrategy::kHostOneFirst:
        w0_first = false;
        break;
      case CommitStrategy::kRandomOrder:
        w0_first = rng_.flip() == 0;
        break;
      case CommitStrategy::kAlternate:
        w0_first = (j % 2) == 1;
        break;
    }
    bool model_commits = false;  // WSL registers force a commitment here.
    {
      const std::vector<ResponseChoice>& w0_choices = sched.choices_for(w0);
      model_commits = std::any_of(
          w0_choices.begin(), w0_choices.end(),
          [](const ResponseChoice& c) { return !c.commit_extension.empty(); });
      const ResponseChoice* chosen = nullptr;
      for (const ResponseChoice& c : w0_choices) {
        if (!model_commits) {
          // Linearizable registers: responding a write decides nothing.
          chosen = &c;
          break;
        }
        const bool commits_w0_only =
            c.commit_extension.size() == 1 && c.commit_extension[0] == w0;
        const bool commits_w1_first =
            c.commit_extension.size() == 2 && c.commit_extension[0] == w1 &&
            c.commit_extension[1] == w0;
        if ((w0_first && commits_w0_only) || (!w0_first && commits_w1_first)) {
          chosen = &c;
          break;
        }
      }
      RLT_CHECK_MSG(chosen != nullptr, "no commitment choice for w0");
      co_yield Action::respond(0, w0, *chosen);  // copied before apply()
    }

    // Step 4 (times t1..tc): p0 flips the coin — only NOW does the
    // adversary learn c — and writes it into C.
    co_yield Action::step(0);  // line 6: coin flip
    const int c = sched.coin_log().back().outcome;
    co_yield Action::step(0);  // invoke write(C, c)
    {
      const PendingOpInfo op = pending_of(sched, 0, kC);
      co_yield Action::respond(0, op.op_id, first_choice(sched, op.op_id));
    }

    // Whether this round can still be survived.  Linearizable registers:
    // always (the adversary now picks the linearization order matching c,
    // Cases 1/2 of the proof of Theorem 6).  WSL registers: only if the
    // order committed at step 3 happens to match the coin.
    const bool survived = !model_commits || (w0_first == (c == 0));
    const Value v1 = host_r1_value(c, j, cfg_.bounded);
    const Value v2 = host_r1_value(1 - c, j, cfg_.bounded);

    // Players' first read returns [c, j] (both cases of Theorem 6's
    // proof; for doomed WSL rounds this is still feasible).
    for (const ProcessId p : players) {
      const PendingOpInfo op = pending_of(sched, p, kR1);
      std::optional<ResponseChoice> ch = choice_with_value(sched, op.op_id, v1);
      RLT_CHECK_MSG(ch.has_value(), "read1 cannot return " << v1);
      co_yield Action::respond(p, op.op_id, *ch);
    }

    // Time t2: p1's write of [1, j] completes.
    co_yield Action::respond(1, w1, first_choice(sched, w1));

    // Players' second read: [1-c, j] if the round survives; otherwise the
    // best the adversary can do is [c, j] again, and the players' line-27
    // check will fail.
    for (const ProcessId p : players) {
      co_yield Action::step(p);  // invoke read2
      const PendingOpInfo op = pending_of(sched, p, kR1);
      std::optional<ResponseChoice> ch = choice_with_value(sched, op.op_id, v2);
      if (survived) {
        RLT_CHECK_MSG(ch.has_value(),
                      "surviving round: read2 cannot return " << v2);
      } else {
        RLT_CHECK_MSG(!ch.has_value(),
                      "doomed round: read2 could still return "
                          << v2 << " — WSL commitment did not bind");
        ch = choice_with_value(sched, op.op_id, v1);
        RLT_CHECK_MSG(ch.has_value(), "doomed round: read2 cannot return "
                                          << v1);
      }
      co_yield Action::respond(p, op.op_id, *ch);
    }

    // Players read C -> c.
    for (const ProcessId p : players) {
      co_yield Action::step(p);  // invoke read(C)
      const PendingOpInfo op = pending_of(sched, p, kC);
      std::optional<ResponseChoice> ch =
          choice_with_value(sched, op.op_id, c);
      RLT_CHECK_MSG(ch.has_value(), "read(C) cannot return " << c);
      co_yield Action::respond(p, op.op_id, *ch);
    }

    // ---- Phase 2, paper Figure 2 ----
    // Hosts write 0 into R2 (line 10).
    for (const ProcessId h : {0, 1}) {
      co_yield Action::step(h);  // invoke write(R2, 0)
      const PendingOpInfo op = pending_of(sched, h, kR2);
      co_yield Action::respond(h, op.op_id, first_choice(sched, op.op_id));
    }
    // Players evaluate lines 24/27.  Surviving round: they proceed to
    // line 31, invoke write(R2, 0), and the write completes immediately
    // (Figure 2 only needs all 0-writes done before the increments start;
    // responding each write as it is invoked keeps the WSL model's
    // commitment batches singleton — its choice menu is factorial in the
    // number of concurrently pending uncommitted writes).  Doomed round:
    // they exit and their coroutines finish.
    for (const ProcessId p : players) {
      co_yield Action::step(p);
      if (survived) {
        const PendingOpInfo op = pending_of(sched, p, kR2);
        co_yield Action::respond(p, op.op_id, first_choice(sched, op.op_id));
      }
    }

    if (!survived) {
      stats_.doomed_round = j;
      // Drain: hosts read R2 (forced 0 < n-2), exit and return.
      while (!sched.all_done()) {
        if (!sched.pending_ops().empty()) {
          // A copy: apply() erases the front entry while we are suspended.
          const PendingOpInfo op = sched.pending_ops().front();
          co_yield Action::respond(op.process, op.op_id,
                                   first_choice(sched, op.op_id));
          continue;
        }
        bool stepped = false;
        for (int p = 0; p < sched.process_count(); ++p) {
          if (!sched.process_done(p) && !sched.process_blocked(p)) {
            co_yield Action::step(p);
            stepped = true;
            break;
          }
        }
        RLT_CHECK_MSG(stepped, "drain deadlock");
      }
      co_return;
    }

    // Surviving round: players read and increment R2 strictly one after
    // another (Figure 2), leaving R2 = n-2.
    Value counter = 0;
    for (const ProcessId p : players) {
      co_yield Action::step(p);  // invoke read(R2)
      const PendingOpInfo rd = pending_of(sched, p, kR2);
      std::optional<ResponseChoice> ch =
          choice_with_value(sched, rd.op_id, counter);
      RLT_CHECK_MSG(ch.has_value(), "R2 read cannot return " << counter);
      co_yield Action::respond(p, rd.op_id, *ch);
      co_yield Action::step(p);  // invoke write(R2, counter + 1)
      const PendingOpInfo wr = pending_of(sched, p, kR2);
      co_yield Action::respond(p, wr.op_id, first_choice(sched, wr.op_id));
      ++counter;
    }
    // Hosts read R2 = n-2 and stay in the game.
    for (const ProcessId h : {0, 1}) {
      co_yield Action::step(h);  // invoke read(R2)
      const PendingOpInfo op = pending_of(sched, h, kR2);
      std::optional<ResponseChoice> ch =
          choice_with_value(sched, op.op_id, n - 2);
      RLT_CHECK_MSG(ch.has_value(), "host read of R2 cannot return " << n - 2);
      co_yield Action::respond(h, op.op_id, *ch);
    }
  }
}

}  // namespace rlt::game
