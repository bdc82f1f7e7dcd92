#include "sweep/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <numeric>
#include <optional>
#include <sstream>
#include <vector>

#include "checker/lin_checker.hpp"
#include "checker/spec.hpp"
#include "checker/stream_checker.hpp"
#include "mp/abd.hpp"
#include "mp/network.hpp"
#include "obs/forensics.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "registers/alg2_register.hpp"
#include "registers/alg3_linearizer.hpp"
#include "registers/alg4_register.hpp"
#include "sim/adversary.hpp"
#include "sim/schedule_policy.hpp"
#include "sim/scheduler.hpp"
#include "sweep/fnv.hpp"
#include "sweep/store.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::sweep {
namespace {

using history::History;
using history::Value;

/// Distinct written values per (writer role, write index): keeps reads
/// unambiguous, which keeps the solver's search space small.
Value written_value(int role, int i) { return 100 * (role + 1) + i; }

// ---- simulator process bodies ------------------------------------------
//
// Free coroutine functions (not capturing lambdas): parameters are copied
// into the coroutine frame, per the CP.51 note on Scheduler::add_process.

sim::Task modeled_proc(sim::Proc& p, int role, int writes) {
  for (int i = 0; i < writes; ++i) {
    co_await p.write(0, written_value(role, i));
  }
  (void)co_await p.read(0);
}

/// Shared body for the implemented MWMR registers (Algorithms 2 and 4
/// expose the same write(slot)/read interface).
template <class Reg>
sim::Task implemented_proc(sim::Proc& p, Reg& r, int slot, int writes) {
  for (int i = 0; i < writes; ++i) {
    co_await r.write(p, slot, written_value(slot, i));
  }
  (void)co_await r.read(p);
}

/// The stall axis's single seed derivation: everything the axis
/// randomizes (victim choice AND the stalling adversary's own stream)
/// keys off this one mix of (scenario seed, fault seed), so the two can
/// never silently decorrelate.
std::uint64_t stall_mix(const Scenario& s) {
  std::uint64_t mix = kFnvOffset;
  fnv_mix_u64(mix, s.seed);
  fnv_mix_u64(mix, s.faults.seed);
  return mix;
}

/// Victims of a kStall plan: a seeded strict minority, a pure function
/// of (scenario seed, fault seed) via the shared picker — the same
/// processes stall for the same seeds in the termination lab.
std::vector<sim::ProcessId> plan_stalls(const Scenario& s) {
  if (s.faults.kind != FaultKind::kStall) return {};
  return sim::pick_strict_minority(s.processes, stall_mix(s));
}

/// How a simulator run was driven and how it ended.
struct SimDrive {
  sim::RunOutcome outcome = sim::RunOutcome::kStopped;
  std::vector<sim::ProcessId> stalled;  ///< kStall victims (may be empty).
};

/// Runs `sched` under the scenario's adversary.  With an active kStall
/// plan, each victim first takes ONE step (so its first operation is
/// live — under interval semantics it stays pending forever, which is
/// the interesting case for the checker) and is then never scheduled
/// again; the surviving actions follow the scenario's adversary policy.
/// A non-null `policy` (exploration) replaces the adversary axis
/// entirely; run_scenario_policy rejects fault plans up front.
SimDrive drive_sim(const Scenario& s, sim::Scheduler& sched,
                   sim::SchedulePolicy* policy) {
  SimDrive d;
  if (policy != nullptr) {
    sim::PolicyAdversary adv(*policy);
    d.outcome = sched.run(adv, s.max_actions);
    return d;
  }
  d.stalled = plan_stalls(s);
  for (const sim::ProcessId p : d.stalled) {
    sched.apply(sim::Action::step(p));
  }
  if (s.adversary == AdversaryKind::kRandom) {
    // Decorrelate the schedule stream from the scheduler's coin stream.
    const std::uint64_t seed = d.stalled.empty() ? s.seed : stall_mix(s);
    sim::RandomAdversary adv(seed * kFnvPrime + 1, d.stalled);
    d.outcome = sched.run(adv, s.max_actions);
  } else {
    sim::RoundRobinAdversary adv(d.stalled);
    d.outcome = sched.run(adv, s.max_actions);
  }
  return d;
}

/// Adds the time from its construction to its destruction to the
/// result's checker share (check_ns <= wall_ns; measured, never digest
/// material).
struct CheckTimer {
  ScenarioResult& out;
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  ~CheckTimer() {
    out.check_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }
};

// ---- each family's own linearization witness (scenario.hpp) -----------

/// An atomic op takes effect and responds within its invoking step, so
/// invocation (op-id) order linearizes the run.
checker::SequentialCheck op_id_order(const History& h) {
  std::vector<int> order(h.size());
  std::iota(order.begin(), order.end(), 0);
  return checker::is_legal_sequential(h, order);
}

/// Theorem 10: Algorithm 3 is Algorithm 2's write strong-linearization
/// function.
checker::SequentialCheck own_witness(const registers::SimAlg2Register& r) {
  return registers::check_alg3_wsl(r.trace(), r.hl_history());
}

/// Theorem 12: Algorithm 4's ⟨sq, pid⟩ tags order its writes.
checker::SequentialCheck own_witness(const registers::SimAlg4Register& r) {
  return checker::check_tag_order(r.hl_history(), r.tags());
}

/// Theorem 14: the single writer's timestamps order ABD's writes.
checker::SequentialCheck own_witness(const mp::AbdRegister& r) {
  return checker::check_tag_order(r.hl_history(), r.tags());
}

/// The WSL model's commit log is Definition 4's write order.
checker::SequentialCheck own_witness(const sim::WslModel& m,
                                     const History& h) {
  return checker::check_commit_order(h, m.commits());
}

/// A witness's verdict, timed as checking.
template <class Check>
Witness run_witness(ScenarioResult& out, const Check& check) {
  const CheckTimer timer{out};
  return check().ok ? Witness::kAccepted : Witness::kMissed;
}

/// Checks the single-register high-level history `h` linearizable, which
/// for one run is everything the scenario's semantics promise (the
/// one-run theorem, scenario.hpp).  Pending ops are fine: the solver
/// includes pending writes as possibly-effective and never includes
/// pending reads (lin_solver.hpp), so a history cut short by a crash or
/// a budget is checked on its completed prefix with the stranded ops as
/// overlays.  A witness that accepted certified it, so the search is
/// skipped; under `online` the streaming checker is held against the
/// witness instead of the batch solver.
void check_history(const History& h, bool online, Witness witness,
                   ScenarioResult& out) {
  const bool witnessed = witness == Witness::kAccepted;
  checker::LinCheckResult lin;
  lin.ok = witnessed;
  if (!witnessed) lin = checker::check_linearizable(h);
  if (online) {
    // Differential gate: replay the history through the streaming
    // checker and demand verdict agreement with the batch solver.  Any
    // split is a checker bug (either side), which must surface loudly
    // rather than silently trusting one of the two.
    const checker::StreamingChecker sc = checker::check_stream(h);
    if (obs::enabled()) {
      obs::count(obs::Counter::kStreamEvents, sc.events_processed());
      obs::gauge_max(obs::Gauge::kStreamPeakLiveOps, sc.peak_live_ops());
      obs::gauge_max(obs::Gauge::kStreamPeakConfigs, sc.peak_configs());
      obs::hist(obs::Hist::kStreamPeakLive, sc.peak_live_ops());
    }
    if (!sc.error().empty()) {
      out.verdict = Verdict::kError;
      out.detail = "online checker could not validate the stream: " +
                   sc.error();
      return;
    }
    if (sc.ok() != lin.ok) {
      out.verdict = Verdict::kError;
      std::ostringstream os;
      os << "online/batch checker disagreement: streaming "
         << (sc.ok() ? std::string("accepts")
                     : "rejects (event " +
                           std::to_string(sc.first_violation_event()) + ")")
         << " but batch " << (lin.ok ? "accepts" : "rejects");
      out.detail = os.str();
      return;
    }
  }
  if (!lin.ok) {
    out.verdict = Verdict::kViolation;
    out.detail = "linearizability violated: " + lin.error;
    return;
  }
  out.verdict = Verdict::kOk;
}

void finish_sim(const Scenario& s, sim::Scheduler& sched, const SimDrive& d,
                const History& h, Witness witness, ScenarioResult& out) {
  const bool online = s.online_check;
  out.steps = sched.actions_applied();
  out.ops = h.completed_count();
  out.history_hash = hash_history(h);
  RunEnd end = RunEnd::kCompleted;
  std::string end_detail;
  if (d.outcome != sim::RunOutcome::kAllDone) {
    // With an active stall plan the adversary stops (kStopped) once only
    // stalled processes have enabled actions.  If every live process is
    // done, that is the stall axis doing its job — the stranded work can
    // never finish under this adversary — and classifies kBlocked, like
    // a crash-stranded ABD run.  Anything else is a genuine early end.
    bool live_all_done = !d.stalled.empty();
    for (int p = 0; live_all_done && p < sched.process_count(); ++p) {
      const bool stalled = std::find(d.stalled.begin(), d.stalled.end(),
                                     p) != d.stalled.end();
      if (!stalled && !sched.process_done(p)) live_all_done = false;
    }
    if (d.outcome == sim::RunOutcome::kStopped && live_all_done) {
      end = RunEnd::kBlocked;
      std::ostringstream os;
      os << "blocked: " << d.stalled.size()
         << " process(es) stalled by the adversary with "
         << (h.ops().size() - h.completed_count())
         << " pending op(s); every live process finished";
      end_detail = os.str();
    } else {
      end = RunEnd::kBudget;
      end_detail = std::string("run ended early: ") + sim::to_string(d.outcome);
    }
  }
  classify_run(h, end, end_detail, out, online, witness);
  if (s.forensics && out.verdict != Verdict::kOk) {
    // Sim families have no message substrate: the artifact carries the
    // op spans (stalled pending ops included) and, on violations, the
    // re-verified minimal certificate.
    const obs::ForensicsCapture cap;
    out.forensics = obs::build_artifact(s.key(), to_string(out.verdict),
                                        out.detail, h, cap);
  }
}

void run_modeled(const Scenario& s, sim::SchedulePolicy* policy,
                 ScenarioResult& out) {
  sim::Scheduler sched(s.seed);
  sched.add_register(0, s.semantics, 0);
  for (int p = 0; p < s.processes; ++p) {
    const int writes = s.writes_per_process;
    sched.add_process("p" + std::to_string(p), [p, writes](sim::Proc& pr) {
      return modeled_proc(pr, p, writes);
    });
  }
  const SimDrive d = drive_sim(s, sched, policy);
  const History& h = sched.global_history();
  Witness witness = Witness::kNone;
  if (s.semantics == sim::Semantics::kAtomic) {
    witness = run_witness(out, [&h] { return op_id_order(h); });
  } else if (s.semantics == sim::Semantics::kWriteStrong) {
    // add_register built a WslModel for these semantics.
    const auto& m = static_cast<const sim::WslModel&>(sched.model(0));
    witness = run_witness(out, [&m, &h] { return own_witness(m, h); });
  }
  finish_sim(s, sched, d, h, witness, out);
}

/// Drives Algorithm 2 (write strongly-linearizable, Theorem 10) or
/// Algorithm 4 (linearizable, Theorem 12; Theorem 13 denies it WSL as a
/// set property).  Either way one run is checked linearizable, by the
/// register's own witness first.
template <class Reg>
void run_implemented(const Scenario& s, sim::SchedulePolicy* policy,
                     ScenarioResult& out) {
  sim::Scheduler sched(s.seed);
  Reg reg(sched, s.processes, /*first_base=*/100, /*initial=*/0);
  for (int p = 0; p < s.processes; ++p) {
    const int writes = s.writes_per_process;
    sched.add_process("p" + std::to_string(p),
                      [&reg, p, writes](sim::Proc& pr) {
                        return implemented_proc(pr, reg, p, writes);
                      });
  }
  const SimDrive d = drive_sim(s, sched, policy);
  const Witness witness = run_witness(out, [&reg] { return own_witness(reg); });
  finish_sim(s, sched, d, reg.hl_history(), witness, out);
}

/// A node's crash moment, decided up front from the scenario's FaultPlan.
struct PlannedCrash {
  std::uint64_t at = 0;   ///< Driver iteration at which the node dies.
  mp::NodeId victim = -1;
};

/// The fault axis's seed derivation.  kMinorityCrash keeps its
/// historical (scenario seed, fault seed) mix — pre-existing crash
/// digests depend on it — while every newer kind folds in a kind salt
/// so fault schedules never alias across kinds.
std::uint64_t fault_mix(const Scenario& s) {
  std::uint64_t mix = kFnvOffset;
  fnv_mix_u64(mix, s.seed);
  fnv_mix_u64(mix, s.faults.seed);
  if (s.faults.active() && s.faults.kind != FaultKind::kMinorityCrash) {
    fnv_mix_u64(mix, static_cast<std::uint64_t>(s.faults.kind));
  }
  return mix;
}

/// Horizon ≈ total ops × per-op delivery cost (reads cost up to 4n
/// messages plus the start itself).  Crash times, cut/heal times and
/// recovery delays are spread over it — some schedules hit
/// mid-protocol, some only after everything finished (degenerating to
/// a fault-free run).
std::uint64_t abd_horizon(const Scenario& s) {
  const std::uint64_t total_ops = static_cast<std::uint64_t>(
      s.writes_per_process + 1 + 2 * (s.processes - 1));
  return total_ops * (4 * static_cast<std::uint64_t>(s.processes) + 2) + 1;
}

/// Expands a minority-crash FaultPlan into concrete (time, victim) pairs.  Crash count
/// is a strict minority (1..⌊(n-1)/2⌋, so a write/read quorum of live
/// servers always remains), victims are distinct, and times are spread
/// over the horizon.  Purely a function of (scenario, plan).  The rng
/// draw order (count, then per-victim swap + time) is digest material:
/// pre-fault-fabric minority digests depend on it, which is why the
/// interleaved draws stay here instead of going through sim::pick_victims.
std::vector<PlannedCrash> plan_crashes(const Scenario& s) {
  std::vector<PlannedCrash> out;
  if (s.faults.kind != FaultKind::kMinorityCrash) return out;
  const int max_crashes = (s.processes - 1) / 2;
  if (max_crashes == 0) return out;  // n <= 2: no strict minority to kill
  util::Rng crash_rng(fault_mix(s));
  const int count =
      1 + static_cast<int>(crash_rng.uniform(
              static_cast<std::uint64_t>(max_crashes)));
  std::vector<mp::NodeId> ids(static_cast<std::size_t>(s.processes));
  for (int i = 0; i < s.processes; ++i) ids[static_cast<std::size_t>(i)] = i;
  const std::uint64_t horizon = abd_horizon(s);
  for (int i = 0; i < count; ++i) {
    const std::size_t j =
        static_cast<std::size_t>(i) +
        static_cast<std::size_t>(crash_rng.uniform(
            static_cast<std::uint64_t>(s.processes - i)));
    std::swap(ids[static_cast<std::size_t>(i)], ids[j]);
    PlannedCrash c;
    c.at = crash_rng.uniform(horizon);
    c.victim = ids[static_cast<std::size_t>(i)];
    out.push_back(c);
  }
  // Apply in deterministic (time, victim) order.
  std::sort(out.begin(), out.end(),
            [](const PlannedCrash& a, const PlannedCrash& b) {
              return a.at != b.at ? a.at < b.at : a.victim < b.victim;
            });
  return out;
}

/// Per-message duplication rate for kDuplicate (fixed; the axis swept
/// is the fault seed, not the rate).
constexpr std::uint32_t kDupPermille = 250;

/// What the unreliable-network kinds planned for one ABD run.  Send-
/// attempt crash thresholds (kMajorityCrash / kCrashRecovery — the
/// mid-broadcast crash mechanism) are scheduled directly on the
/// Network; everything iteration-based lives here for the driver loop.
struct AbdFaultFabric {
  /// Arm AbdRegister::enable_fault_tolerance (retransmission + dedup).
  bool fault_tolerant = false;
  // kPartition: cut [cut_at, heal_at) over `side`.
  bool has_partition = false;
  std::uint64_t cut_at = 0;
  std::uint64_t heal_at = 0;
  std::vector<std::uint8_t> side;
  // kCrashRecovery: per-node recovery delay (0 = not a victim); the
  // recovery is scheduled `delay` iterations after the driver OBSERVES
  // the crash (send-attempt thresholds fire between loop tops).
  std::vector<std::uint64_t> recover_delay;
};

/// Plans the unreliable-network fault kinds: arms the Network fabric
/// (loss/duplication coins, send-attempt crash thresholds) and returns
/// the iteration-based remainder.  A pure function of (scenario, plan);
/// kNone/kMinorityCrash/kStall leave the network untouched.
AbdFaultFabric plan_fabric(const Scenario& s, mp::Network& net) {
  AbdFaultFabric f;
  const int n = s.processes;
  util::Rng rng(fault_mix(s));
  switch (s.faults.kind) {
    case FaultKind::kNone:
    case FaultKind::kMinorityCrash:
    case FaultKind::kStall:
      break;
    case FaultKind::kLossy:
      net.make_unreliable(s.faults.param, 0, rng.next_u64());
      f.fault_tolerant = true;
      break;
    case FaultKind::kDuplicate:
      net.make_unreliable(0, kDupPermille, rng.next_u64());
      f.fault_tolerant = true;
      break;
    case FaultKind::kPartition: {
      if (n < 2) break;  // one node cannot be cut from itself
      const std::uint64_t horizon = abd_horizon(s);
      f.has_partition = true;
      f.cut_at = rng.uniform(horizon);
      f.heal_at = f.cut_at + 1 + rng.uniform(horizon);
      f.side.assign(static_cast<std::size_t>(n), 0);
      const int minority =
          1 + static_cast<int>(rng.uniform(
                  static_cast<std::uint64_t>(n - 1)));
      for (const mp::NodeId v : sim::pick_victims(n, minority, rng)) {
        f.side[static_cast<std::size_t>(v)] = 1;
      }
      f.fault_tolerant = true;
      break;
    }
    case FaultKind::kMajorityCrash: {
      // Between a quorum and all n nodes die, each at a send-attempt
      // threshold in [1, n+1] — within or right after the run's first
      // broadcast, so no op can assemble a quorum of replies first and
      // blocking is certain.  Thresholds inside a broadcast land the
      // crash between its sends.
      const int q = n / 2 + 1;
      const int count =
          q + static_cast<int>(rng.uniform(
                  static_cast<std::uint64_t>(n - q + 1)));
      const std::vector<mp::NodeId> victims = sim::pick_victims(n, count, rng);
      std::vector<PlannedCrash> at_send;
      for (const mp::NodeId v : victims) {
        PlannedCrash c;
        c.at = 1 + rng.uniform(static_cast<std::uint64_t>(n) + 1);
        c.victim = v;
        at_send.push_back(c);
      }
      std::sort(at_send.begin(), at_send.end(),
                [](const PlannedCrash& a, const PlannedCrash& b) {
                  return a.at != b.at ? a.at < b.at : a.victim < b.victim;
                });
      for (const PlannedCrash& c : at_send) {
        net.schedule_crash_at_send(c.victim, c.at);
      }
      break;
    }
    case FaultKind::kCrashRecovery: {
      const int max_crashes = (n - 1) / 2;
      if (max_crashes == 0) break;
      const int count =
          1 + static_cast<int>(rng.uniform(
                  static_cast<std::uint64_t>(max_crashes)));
      const std::uint64_t horizon = abd_horizon(s);
      const std::vector<mp::NodeId> victims = sim::pick_victims(n, count, rng);
      f.recover_delay.assign(static_cast<std::size_t>(n), 0);
      std::vector<PlannedCrash> at_send;
      for (const mp::NodeId v : victims) {
        PlannedCrash c;
        c.at = 1 + rng.uniform(horizon);
        c.victim = v;
        at_send.push_back(c);
        f.recover_delay[static_cast<std::size_t>(v)] =
            1 + rng.uniform(horizon / 2 + 1);
      }
      std::sort(at_send.begin(), at_send.end(),
                [](const PlannedCrash& a, const PlannedCrash& b) {
                  return a.at != b.at ? a.at < b.at : a.victim < b.victim;
                });
      for (const PlannedCrash& c : at_send) {
        net.schedule_crash_at_send(c.victim, c.at);
      }
      f.fault_tolerant = true;
      break;
    }
  }
  return f;
}

void run_abd(const Scenario& s, sim::SchedulePolicy* policy,
             ScenarioResult& out) {
  // Node 0 is the (single) writer; every node finishes with reads.  The
  // per-node programs are fixed; the adversary controls when operations
  // start and in which order messages are delivered, and the fault plan
  // may kill nodes at seeded moments, drop/duplicate messages, cut the
  // network in two, or crash-and-recover nodes mid-protocol.
  mp::Network net;
  mp::AbdRegister reg(net, s.processes, /*writer=*/0, /*initial=*/0,
                      s.abd_read_write_back);
  // Forensics timeline: a passive NetObserver recording every network
  // event in driver order, plus driver-level fault notes.  Attached only
  // when the scenario asks for forensics — zero overhead otherwise, and
  // never any behavior change (the fabric Rng streams are untouched).
  obs::TimelineRecorder timeline;
  if (s.forensics) net.set_observer(&timeline);
  util::Rng rng(s.seed * kFnvPrime + 2);
  const std::vector<PlannedCrash> crashes = plan_crashes(s);
  const AbdFaultFabric fab = plan_fabric(s, net);
  const bool menu_faults = s.explore_faults && policy != nullptr;
  if (fab.fault_tolerant || menu_faults) {
    reg.enable_fault_tolerance(fault_mix(s) * kFnvPrime + 3);
  }

  struct Program {
    std::deque<Value> writes;  ///< Remaining writes (writer node only).
    int reads = 0;             ///< Remaining reads.
    int token = -1;            ///< In-flight op token, -1 if none.
  };
  std::vector<Program> prog(static_cast<std::size_t>(s.processes));
  for (int i = 0; i < s.writes_per_process; ++i) {
    prog[0].writes.push_back(written_value(0, i));
  }
  for (int n = 0; n < s.processes; ++n) {
    prog[static_cast<std::size_t>(n)].reads = (n == 0) ? 1 : 2;
  }

  auto idle_with_work = [&](int n) {
    Program& pr = prog[static_cast<std::size_t>(n)];
    if (pr.token >= 0) return false;
    return !pr.writes.empty() || pr.reads > 0;
  };
  // Every token ever started, in begin order (forensics only): the
  // quorum ledger must cover abandoned ops too, whose Program token was
  // cleared when their home crashed.
  std::vector<int> token_log;
  auto start_op = [&](int n) {
    Program& pr = prog[static_cast<std::size_t>(n)];
    if (!pr.writes.empty()) {
      pr.token = reg.begin_write(pr.writes.front());
      pr.writes.pop_front();
    } else {
      pr.token = reg.begin_read(n);
      --pr.reads;
    }
    if (s.forensics) token_log.push_back(pr.token);
  };

  int rr_next = 0;
  std::uint64_t iterations = 0;
  std::size_t next_crash = 0;
  // Crash-recovery bookkeeping: send-attempt crashes fire between loop
  // tops, so the driver observes them here, abandons the victim's
  // in-flight op and schedules the recovery.
  const bool observe_crashes = !fab.recover_delay.empty() || menu_faults;
  std::vector<bool> crash_observed(static_cast<std::size_t>(s.processes),
                                   false);
  std::vector<std::uint64_t> recover_at(
      static_cast<std::size_t>(s.processes), 0);
  bool cut_active = false;
  bool cut_applied = false;
  // Explore fault-menu budgets: drops/duplicates charge per-run message
  // budgets; crashes stay a strict minority for the whole run (so a
  // live quorum — and therefore retransmission eligibility — always
  // survives and the adversary cannot trivially block the run).
  std::uint64_t menu_drops =
      menu_faults ? 2 * static_cast<std::uint64_t>(s.processes) : 0;
  std::uint64_t menu_dups =
      menu_faults ? static_cast<std::uint64_t>(s.processes) : 0;
  int menu_crashes_left = menu_faults ? (s.processes - 1) / 2 : 0;
  RunEnd end = RunEnd::kCompleted;
  std::string end_detail;
  std::vector<obs::LedgerEntry> ledger;
  for (;;) {
    // Partition cut/heal due at this moment.
    if (fab.has_partition) {
      if (!cut_applied && iterations >= fab.cut_at) {
        net.set_partition(fab.side);
        cut_applied = true;
        cut_active = true;
        if (s.forensics) {
          std::ostringstream os;
          os << "partition cut {";
          for (std::size_t i = 0; i < fab.side.size(); ++i) {
            if (fab.side[i] == 0) os << ' ' << i;
          }
          os << " }|{";
          for (std::size_t i = 0; i < fab.side.size(); ++i) {
            if (fab.side[i] != 0) os << ' ' << i;
          }
          os << " } at iteration " << iterations;
          timeline.note_fault(os.str());
        }
      }
      if (cut_active && iterations >= fab.heal_at) {
        net.heal_partition();
        cut_active = false;
        if (s.forensics) {
          timeline.note_fault("partition healed at iteration " +
                              std::to_string(iterations));
        }
      }
    }
    // Fire crashes due at this moment.  A crashed node abandons the rest
    // of its program: it starts nothing, and its in-flight operation (if
    // any) is stranded — quorum replies can never reach it.
    while (next_crash < crashes.size() &&
           crashes[next_crash].at <= iterations) {
      net.crash(crashes[next_crash].victim);
      ++next_crash;
    }
    // Crash-recovery semantics: observe new crashes (abandon the
    // victim's op, schedule the recovery) and fire recoveries that are
    // due (durable server state survives, volatile state resets).  A
    // victim caught with an op in flight retires its remaining client
    // program for good: the abandoned op stays pending in its history
    // forever, so a later op by the same process would make the history
    // malformed (per-process ops must be sequential) — the recovered
    // node rejoins as a server participant only.  A victim that was
    // idle between ops resumes its program after recovery.
    if (observe_crashes) {
      for (int n = 0; n < s.processes; ++n) {
        const auto ni = static_cast<std::size_t>(n);
        if (net.crashed(n) && !crash_observed[ni]) {
          crash_observed[ni] = true;
          reg.abandon_ops_on(n);
          const int tok = prog[ni].token;
          if (tok >= 0 && !reg.done(tok)) {
            prog[ni].writes.clear();
            prog[ni].reads = 0;
          }
          prog[ni].token = -1;
          if (!fab.recover_delay.empty() && fab.recover_delay[ni] > 0) {
            recover_at[ni] = iterations + fab.recover_delay[ni];
          }
        }
        if (recover_at[ni] > 0 && iterations >= recover_at[ni]) {
          net.recover(n);
          reg.on_recover(n);
          recover_at[ni] = 0;
          crash_observed[ni] = false;
        }
      }
    }
    // Retransmission timers (no-op unless fault tolerance is armed).
    reg.tick_retransmit(iterations);
    // Retire finished operations.
    for (Program& pr : prog) {
      if (pr.token >= 0 && reg.done(pr.token)) pr.token = -1;
    }
    std::vector<int> startable;
    for (int n = 0; n < s.processes; ++n) {
      if (!net.crashed(n) && idle_with_work(n)) startable.push_back(n);
    }
    const bool flying = net.in_flight() > 0;
    if (startable.empty() && !flying) {
      // Quiescent — but a future fabric event (the partition heal, a
      // scheduled recovery, a retransmission timer) may still unblock
      // the run: fast-forward the driver clock to the earliest one
      // instead of misclassifying the lull as a block.
      std::optional<std::uint64_t> next_event;
      auto consider = [&next_event](std::uint64_t t) {
        if (!next_event || t < *next_event) next_event = t;
      };
      if (cut_active) consider(fab.heal_at);
      for (const std::uint64_t at : recover_at) {
        if (at > 0) consider(at);
      }
      if (const auto due = reg.next_retransmit_due()) consider(*due);
      if (next_event) {
        if (*next_event > s.max_actions) {
          end = RunEnd::kBudget;
          end_detail = "ABD driver exhausted its action budget";
          break;
        }
        iterations = std::max(iterations + 1, *next_event);
        continue;
      }
      // Genuine block: no delivery, start, or fabric event can ever
      // complete the pending work — every pending op was abandoned by a
      // crash, lives on a crashed node, or cannot assemble a live
      // quorum.
      if (reg.pending_ops() > 0) {
        end = RunEnd::kBlocked;
        const int abandoned = reg.abandoned_ops();
        int on_crashed = 0;
        int no_quorum = 0;
        for (int n = 0; n < s.processes; ++n) {
          const int tok = prog[static_cast<std::size_t>(n)].token;
          if (tok < 0 || reg.op_can_complete(tok)) continue;
          if (net.crashed(reg.op_node(tok))) {
            ++on_crashed;
          } else {
            ++no_quorum;  // home alive but live servers < quorum
          }
        }
        std::ostringstream os;
        if (abandoned > 0) {
          os << "blocked: quiescent with " << reg.pending_ops()
             << " pending op(s) (" << abandoned
             << " abandoned by crash-recovery, " << on_crashed
             << " on crashed nodes, " << no_quorum
             << " without a live quorum); " << net.live_count() << "/"
             << s.processes << " nodes live";
        } else {
          os << "blocked: quiescent with " << reg.pending_ops()
             << " pending op(s) (" << on_crashed << " on crashed nodes, "
             << no_quorum << " without a live quorum); " << net.live_count()
             << "/" << s.processes << " nodes live";
        }
        end_detail = os.str();
        // Quorum ledger: one entry per op that will never complete —
        // which servers acked its stuck phase, and the named fault
        // event that cut it off.  token_log covers abandoned ops whose
        // Program slot was already cleared.  Token == history op id:
        // both counters advance exactly once per begin_*.
        if (s.forensics) {
          for (const int tok : token_log) {
            if (reg.done(tok)) continue;
            obs::LedgerEntry le;
            le.token = tok;
            le.op_id = tok;
            le.node = reg.op_node(tok);
            le.phase = reg.op_phase_name(tok);
            const std::uint64_t mask = reg.op_heard_mask(tok);
            for (int b = 0; b < s.processes; ++b) {
              if ((mask >> b) & 1u) le.acks.push_back(b);
            }
            le.quorum = reg.quorum();
            le.n = s.processes;
            le.abandoned = reg.op_abandoned(tok);
            if (le.abandoned) {
              le.cause = "abandoned-by-crash-recovery";
              le.cut_by = timeline.last_fault_touching(le.node);
            } else if (net.crashed(le.node)) {
              le.cause = "home-node-crashed";
              le.cut_by = timeline.last_fault_touching(le.node);
            } else {
              le.cause = "no-live-quorum";
              le.cut_by = timeline.last_fault_touching(-1);
            }
            ledger.push_back(std::move(le));
          }
        }
      }
      break;
    }
    if (++iterations > s.max_actions) {
      end = RunEnd::kBudget;
      end_detail = "ABD driver exhausted its action budget";
      break;
    }
    if (policy != nullptr) {
      // Exploration: the policy picks from the full structural menu —
      // every startable operation, then every in-flight message (then,
      // with explore_faults, the admissible fault injections) — which
      // is strictly more adversarial than either seeded schedule below.
      sim::SplitMenu menu;
      menu.start_nodes.reserve(startable.size());
      for (const int n : startable) {
        menu.start_nodes.push_back(static_cast<std::int32_t>(n));
      }
      menu.deliveries.reserve(net.in_flight());
      for (const mp::Message& m : net.in_flight_messages()) {
        menu.deliveries.push_back({static_cast<std::int32_t>(m.from),
                                   static_cast<std::int32_t>(m.to), m.type});
      }
      if (menu_faults) {
        using Fault = sim::SplitMenu::Fault;
        const std::size_t fly = net.in_flight();
        if (menu_drops > 0) {
          for (std::size_t j = 0; j < fly; ++j) {
            menu.faults.push_back(
                {Fault::Kind::kDrop, static_cast<std::int32_t>(j)});
          }
        }
        if (menu_dups > 0) {
          for (std::size_t j = 0; j < fly; ++j) {
            menu.faults.push_back(
                {Fault::Kind::kDuplicate, static_cast<std::int32_t>(j)});
          }
        }
        for (int n = 0; n < s.processes; ++n) {
          if (menu_crashes_left > 0 && !net.crashed(n)) {
            menu.faults.push_back(
                {Fault::Kind::kCrash, static_cast<std::int32_t>(n)});
          }
          if (net.crashed(n)) {
            menu.faults.push_back(
                {Fault::Kind::kRecover, static_cast<std::int32_t>(n)});
          }
        }
      }
      const std::size_t idx = policy->pick_split(menu);
      RLT_CHECK_MSG(idx < menu.size(),
                    "schedule policy picked outside the ABD menu");
      const std::size_t nstarts = menu.start_nodes.size();
      const std::size_t ndeliveries = menu.deliveries.size();
      if (idx < nstarts) {
        start_op(startable[idx]);
      } else if (idx < nstarts + ndeliveries) {
        net.deliver_at(idx - nstarts);
      } else {
        const sim::SplitMenu::Fault fc =
            menu.faults[idx - nstarts - ndeliveries];
        const auto arg = static_cast<std::size_t>(fc.arg);
        switch (fc.kind) {
          case sim::SplitMenu::Fault::Kind::kDrop:
            net.drop_at(arg);
            --menu_drops;
            break;
          case sim::SplitMenu::Fault::Kind::kDuplicate:
            net.duplicate_at(arg);
            --menu_dups;
            break;
          case sim::SplitMenu::Fault::Kind::kCrash:
            // Abandonment/recovery bookkeeping happens at the next loop
            // top, exactly like a planned send-attempt crash.
            net.crash(fc.arg);
            --menu_crashes_left;
            break;
          case sim::SplitMenu::Fault::Kind::kRecover:
            net.recover(fc.arg);
            reg.on_recover(fc.arg);
            crash_observed[arg] = false;
            break;
        }
      }
    } else if (s.adversary == AdversaryKind::kRoundRobin) {
      // Conservative schedule: drain the network oldest-first; start
      // operations round-robin only when it is quiet.
      if (flying) {
        net.deliver_at(0);
      } else {
        while (net.crashed(rr_next) || !idle_with_work(rr_next)) {
          rr_next = (rr_next + 1) % s.processes;
        }
        start_op(rr_next);
        rr_next = (rr_next + 1) % s.processes;
      }
    } else {
      // Random schedule: bias toward deliveries, but keep starting new
      // operations while messages fly so operations genuinely overlap.
      const bool start = !startable.empty() && (!flying || rng.chance(1, 3));
      if (start) {
        start_op(startable[rng.uniform(startable.size())]);
      } else {
        net.deliver_random(rng);
      }
    }
  }

  const History& h = reg.hl_history();
  // steps = envelopes consumed off the wire: the historical "delivered"
  // count before the fabric split honest delivery from drops, so
  // fault-free and minority-crash digests are unchanged.
  out.steps = net.messages_consumed();
  out.net_delivered = net.messages_delivered();
  out.net_dropped = net.messages_dropped();
  out.net_duplicated = net.messages_duplicated();
  out.net_msgs = net.messages_sent();
  out.net_bytes = net.bytes_sent();
  out.net_round_trips = reg.round_trips();
  if (obs::enabled()) {
    obs::count(obs::Counter::kNetMsgsSent, net.messages_sent());
    obs::count(obs::Counter::kNetBytesSent, net.bytes_sent());
    obs::count(obs::Counter::kNetDelivered, net.messages_delivered());
    obs::count(obs::Counter::kNetDropped, net.messages_dropped());
    obs::count(obs::Counter::kNetDuplicated, net.messages_duplicated());
    obs::count(obs::Counter::kNetRetransmits, reg.retransmits());
    obs::count(obs::Counter::kAbdRoundTrips, reg.round_trips());
  }
  out.ops = h.completed_count();
  out.history_hash = hash_history(h);
  // Theorem 14: linearizable SWMR implementations (ABD included) are
  // write strongly-linearizable, and one run is that iff it is
  // linearizable (scenario.hpp).  The check runs on every exit path, so
  // a violation in a blocked or budget-exhausted schedule is never
  // masked by the early-exit classification.  The no-write-back ablation
  // has no witness.
  const Witness witness =
      s.abd_read_write_back
          ? run_witness(out, [&reg] { return own_witness(reg); })
          : Witness::kNone;
  classify_run(h, end, end_detail, out, s.online_check, witness);
  if (s.forensics && out.verdict != Verdict::kOk) {
    obs::ForensicsCapture cap;
    cap.timeline = &timeline;
    cap.ledger = std::move(ledger);
    out.forensics = obs::build_artifact(s.key(), to_string(out.verdict),
                                        out.detail, h, cap);
  }
  net.set_observer(nullptr);
}

}  // namespace

const char* to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kModeled: return "modeled";
    case Algorithm::kAlg2: return "alg2";
    case Algorithm::kAlg4: return "alg4";
    case Algorithm::kAbd: return "abd";
  }
  return "?";
}

const char* to_string(AdversaryKind a) noexcept {
  switch (a) {
    case AdversaryKind::kRandom: return "rand";
    case AdversaryKind::kRoundRobin: return "rr";
  }
  return "?";
}

const char* to_string(FaultKind f) noexcept {
  switch (f) {
    case FaultKind::kNone: return "none";
    case FaultKind::kMinorityCrash: return "minority";
    case FaultKind::kStall: return "stall";
    case FaultKind::kLossy: return "lossy";
    case FaultKind::kDuplicate: return "dup";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kMajorityCrash: return "majority";
    case FaultKind::kCrashRecovery: return "recovery";
  }
  return "?";
}

bool fault_applies(FaultKind f, Algorithm a) noexcept {
  switch (f) {
    case FaultKind::kNone:
      return true;
    case FaultKind::kStall:
      return a != Algorithm::kAbd;
    case FaultKind::kMinorityCrash:
    case FaultKind::kLossy:
    case FaultKind::kDuplicate:
    case FaultKind::kPartition:
    case FaultKind::kMajorityCrash:
    case FaultKind::kCrashRecovery:
      return a == Algorithm::kAbd;
  }
  return false;
}

const char* to_string(Verdict v) noexcept {
  switch (v) {
    // Upper case marks verdicts that fail the sweep; "blocked" is an
    // expected outcome of the crash axis (it only fails checks if the
    // history up to the block was wrong, which reports as VIOLATION).
    case Verdict::kOk: return "ok";
    case Verdict::kViolation: return "VIOLATION";
    case Verdict::kBlocked: return "blocked";
    case Verdict::kError: return "ERROR";
  }
  return "?";
}

std::string Scenario::key() const {
  std::string k = to_string(algorithm);
  if (algorithm == Algorithm::kModeled) {
    k.append("-").append(sim::to_string(semantics));
  }
  k.append("/").append(to_string(adversary));
  append_decimal(k.append("/p"), processes);
  append_decimal(k.append("/w"), writes_per_process);
  // Defaulted knobs add nothing: crash-free keys are byte-identical to
  // their pre-fault-axis spelling (pinned digests depend on this).
  if (!abd_read_write_back) k.append("/nowb");
  if (faults.active()) {
    k.append("/f").append(to_string(faults.kind));
    if (faults.param != 0) append_decimal(k.append("-d"), faults.param);
    append_decimal(k.append("-c"), faults.seed);
  }
  if (explore_faults) k.append("/fmenu");
  append_decimal(k.append("/seed"), seed);
  return k;
}

void classify_run(const History& h, RunEnd end,
                  const std::string& end_detail, ScenarioResult& out,
                  bool online, Witness witness) {
  // Attributes the checker's share of the scenario wall time on every
  // exit path.
  const CheckTimer timer{out};
  if (witness == Witness::kMissed) {
    obs::count(obs::Counter::kCheckerWitnessMisses);
  }
  // The backtracking solver handles at most kMaxSolverOps ops per
  // register.  A witness and the streaming checker have no such cap, so
  // only a history that needs a batch search past it degrades to
  // "unvalidated" rather than throw.
  bool checkable = true;
  if (witness != Witness::kAccepted) {
    for (const history::RegisterId reg : h.registers()) {
      std::size_t ops_on_reg = 0;
      for (const history::OpRecord& op : h.ops()) {
        if (op.reg == reg) ++ops_on_reg;
      }
      if (ops_on_reg > checker::kMaxSolverOps) checkable = false;
    }
  }
  if (checkable) {
    check_history(h, online, witness, out);
    if (out.verdict == Verdict::kViolation) {
      // The violation wins; keep the early-exit context for diagnosis.
      if (!end_detail.empty()) out.detail += " [" + end_detail + "]";
      return;
    }
    if (online && out.verdict == Verdict::kError) {
      // A checker disagreement (or an unvalidatable stream) outranks the
      // early-exit classification the same way a violation does.
      if (!end_detail.empty()) out.detail += " [" + end_detail + "]";
      return;
    }
  }
  switch (end) {
    case RunEnd::kCompleted:
      if (!checkable) {
        out.verdict = Verdict::kError;
        out.detail = "history exceeds the solver's " +
                     std::to_string(checker::kMaxSolverOps) +
                     "-op/register limit";
      }
      break;  // otherwise check_history's kOk stands
    case RunEnd::kBlocked:
      out.verdict = Verdict::kBlocked;
      out.detail = end_detail;
      if (checkable) out.detail += " (history up to the block checked clean)";
      break;
    case RunEnd::kBudget:
      out.verdict = Verdict::kError;
      out.detail = end_detail;
      if (checkable) out.detail += " (completed prefix checked clean)";
      break;
  }
}

std::uint64_t hash_history(const History& h) {
  // Mixes every op — including invocation-only (pending) ones, whose
  // response mixes as kNoTime and whose read value is the deterministic
  // pending sentinel (0) — so crash-stranded ops change the fingerprint
  // exactly like completed ones.  Completed histories hash byte-for-byte
  // as they did before the crash axis existed.
  std::uint64_t out = kFnvOffset;
  for (const history::RegisterId reg : h.registers()) {
    fnv_mix_u64(out, static_cast<std::uint64_t>(reg));
    fnv_mix_u64(out, static_cast<std::uint64_t>(h.initial(reg)));
  }
  for (const history::OpRecord& op : h.ops()) {
    fnv_mix_u64(out, static_cast<std::uint64_t>(op.process));
    fnv_mix_u64(out, static_cast<std::uint64_t>(op.reg));
    fnv_mix_u64(out, op.kind == history::OpKind::kWrite ? 1 : 0);
    fnv_mix_u64(out, static_cast<std::uint64_t>(op.value));
    fnv_mix_u64(out, op.invoke);
    fnv_mix_u64(out, op.response);
  }
  return out;
}

namespace {

ScenarioResult run_scenario_impl(const Scenario& s,
                                 sim::SchedulePolicy* policy) {
  ScenarioResult out;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    // Inside the try: bad programmatic configs become kError verdicts,
    // per this function's no-throw contract (the CLI validates earlier).
    RLT_CHECK_MSG(s.processes >= 1 && s.processes <= 64,
                  "scenario processes out of range");
    RLT_CHECK_MSG(s.writes_per_process >= 0, "negative writes_per_process");
    RLT_CHECK_MSG(fault_applies(s.faults.kind, s.algorithm),
                  "fault kind '" << to_string(s.faults.kind)
                                 << "' does not apply to the '"
                                 << to_string(s.algorithm) << "' family");
    RLT_CHECK_MSG(s.faults.kind != FaultKind::kLossy ||
                      (s.faults.param >= 1 && s.faults.param <= 999),
                  "lossy fault plans need a drop rate in 1..999 permille");
    RLT_CHECK_MSG(policy == nullptr || !s.faults.active(),
                  "fault plans do not combine with an external schedule "
                  "policy");
    RLT_CHECK_MSG(!s.explore_faults ||
                      (policy != nullptr && s.algorithm == Algorithm::kAbd),
                  "explore fault menus need an external schedule policy "
                  "driving the ABD family");
    switch (s.algorithm) {
      case Algorithm::kModeled:
        run_modeled(s, policy, out);
        break;
      case Algorithm::kAlg2:
        run_implemented<registers::SimAlg2Register>(s, policy, out);
        break;
      case Algorithm::kAlg4:
        run_implemented<registers::SimAlg4Register>(s, policy, out);
        break;
      case Algorithm::kAbd:
        run_abd(s, policy, out);
        break;
    }
  } catch (const std::exception& e) {
    out.verdict = Verdict::kError;
    out.detail = std::string("exception: ") + e.what();
  } catch (...) {
    out.verdict = Verdict::kError;
    out.detail = "unknown exception";
  }
  if (obs::enabled()) {
    obs::count(obs::Counter::kSweepScenarios);
    obs::hist(obs::Hist::kScenarioOps, out.ops);
  }
  out.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  return out;
}

}  // namespace

ScenarioResult run_scenario(const Scenario& s) {
  return run_scenario_impl(s, nullptr);
}

ScenarioResult run_scenario_policy(const Scenario& s,
                                   sim::SchedulePolicy& schedule) {
  return run_scenario_impl(s, &schedule);
}

}  // namespace rlt::sweep
