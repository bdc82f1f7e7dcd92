// Schedule policies: the exploration lab's hook into every driver loop.
//
// A `SchedulePolicy` makes scheduling decisions through *indexed decision
// menus*.  Two menu shapes cover every workload in the repo:
//
//  * `pick` — the simulator families (modeled registers, Algorithms 2
//    and 4, the game/consensus/coin protocols): the menu is the
//    scheduler's full enabled-action list (steps of runnable processes in
//    process-id order, then every response choice of every pending op in
//    pending order).  The policy may inspect the scheduler — pending
//    ops, register choice menus, the coin log — which is exactly the
//    strong-adversary observation model of Section 2 of the paper.
//  * `pick_split` — the ABD message-passing driver, whose decisions are
//    not scheduler actions: the menu is `starts` startable client
//    operations (node-id order) followed by `deliveries` in-flight
//    messages (send order).
//
// Because both menus are enumerated in a deterministic order by a
// deterministic simulation, a run is fully reproduced by the sequence of
// indices a policy returned — which is what makes recorded schedules
// replayable and shrinkable (src/explore/trace.hpp).  Policies are the
// only adversary abstraction that spans both the scheduler-based and the
// message-passing families.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/scheduler.hpp"
#include "util/assert.hpp"

namespace rlt::sim {

/// The message-passing driver's decision menu: `start_nodes[i]` is the
/// node whose next client operation entry i would start; entry
/// `start_nodes.size() + j` delivers in-flight message j, described by
/// `deliveries[j]` (sender, receiver, protocol message type).  Exposing
/// the message envelope — not its payload — matches the strong-adversary
/// model: the adversary sees who is talking to whom and may reorder at
/// will.
struct SplitMenu {
  struct Delivery {
    std::int32_t from = -1;
    std::int32_t to = -1;
    std::int64_t type = 0;
  };
  /// A fault-injection choice (Scenario::explore_faults): the driver
  /// appends these AFTER the deliveries, so policies that only reason
  /// about the structural sections keep their historical indices.
  /// Budgeted by the driver — drop/duplicate charges a per-run message
  /// budget, crash keeps the victims to a strict minority, recover is
  /// offered per crashed node — so the menu only ever lists admissible
  /// injections.
  struct Fault {
    enum class Kind : std::uint8_t { kDrop, kDuplicate, kCrash, kRecover };
    Kind kind = Kind::kDrop;
    /// In-flight message index (kDrop/kDuplicate) or node id
    /// (kCrash/kRecover).
    std::int32_t arg = -1;
  };
  std::vector<std::int32_t> start_nodes;
  std::vector<Delivery> deliveries;
  std::vector<Fault> faults;

  [[nodiscard]] std::size_t size() const noexcept {
    return start_nodes.size() + deliveries.size() + faults.size();
  }
};

/// Strategy interface for indexed-menu scheduling decisions.  Both hooks
/// must return an index < the menu size; menus are never empty.
class SchedulePolicy {
 public:
  virtual ~SchedulePolicy() = default;

  /// Simulator families: pick from the full enabled-action menu.  The
  /// policy may observe `sched` (strong adversary).
  virtual std::size_t pick(Scheduler& sched,
                           const std::vector<Action>& menu) = 0;

  /// Message-passing driver: pick from the structural menu.
  virtual std::size_t pick_split(const SplitMenu& menu) = 0;
};

/// Adapts a SchedulePolicy to the Adversary interface so it can drive
/// any Scheduler::run loop.  Stops the run (nullopt) on an empty menu.
class PolicyAdversary final : public Adversary {
 public:
  explicit PolicyAdversary(SchedulePolicy& policy) : policy_(&policy) {}

  std::optional<Action> choose(Scheduler& sched) override {
    const std::vector<Action>& menu = sched.enabled_actions();
    if (menu.empty()) return std::nullopt;
    const std::size_t i = policy_->pick(sched, menu);
    RLT_CHECK_MSG(i < menu.size(), "policy picked index " << i
                                       << " out of a menu of "
                                       << menu.size());
    return menu[i];
  }

 private:
  SchedulePolicy* policy_;
};

}  // namespace rlt::sim
