// Property-based cross-validation of the checker hierarchy on randomly
// generated histories:
//
//   strongly linearizable  ⟹  write strongly-linearizable  ⟹ linearizable
//
// plus structural properties: every checker verdict's witness validates
// against the sequential spec; linearizability is prefix-closed; WSL of a
// history set implies WSL of every subset; SWMR histories that are
// linearizable are always WSL (Theorem 14 at the abstract level); and the
// hierarchy holds on branching two-run trees, through the tree search's
// multi-run path.
#include <gtest/gtest.h>

#include "checker/lin_checker.hpp"
#include "checker/strong_checker.hpp"
#include "checker/wsl_checker.hpp"
#include "mp/f_star.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace rlt::checker {
namespace {

using history::History;
using history::kNoTime;
using history::OpRecord;

/// Generates a random well-formed single-register history: `procs`
/// processes each issuing sequential ops with random overlap; read
/// values are chosen from plausible candidates (making both satisfiable
/// and unsatisfiable instances likely).
History random_history(util::Rng& rng, int procs, int ops_per_proc,
                       bool sane_reads) {
  History h;
  h.set_initial(0, 0);
  struct Slot {
    history::Time invoke;
    history::Time response;
    int process;
    bool is_write;
    history::Value value;
  };
  std::vector<Slot> slots;
  history::Time clock = 0;
  std::vector<history::Value> written{0};

  // Per-process sequential intervals over a global clock with jitter.
  std::vector<history::Time> proc_clock(static_cast<std::size_t>(procs), 0);
  for (int round = 0; round < ops_per_proc; ++round) {
    for (int p = 0; p < procs; ++p) {
      Slot s;
      s.process = p;
      s.invoke = ++clock + rng.uniform(7);
      s.response = s.invoke + 1 + rng.uniform(15);
      s.is_write = rng.chance(1, 2);
      if (s.is_write) {
        s.value = static_cast<history::Value>(100 + written.size());
        written.push_back(s.value);
      } else {
        s.value = 0;
      }
      slots.push_back(s);
    }
  }
  // Fix up in one pass: per-process sequential intervals (the next op of
  // a process is invoked strictly after its previous op responded) with
  // globally unique event times; cross-process overlap stays random.
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.invoke < b.invoke; });
  std::set<history::Time> used;
  history::Time global = 0;
  for (Slot& s : slots) {
    s.invoke = std::max(
        {s.invoke, global + 1,
         proc_clock[static_cast<std::size_t>(s.process)] + 1});
    while (used.count(s.invoke) > 0) ++s.invoke;
    used.insert(s.invoke);
    global = s.invoke;
    s.response = s.invoke + 1 + rng.uniform(20);
    while (used.count(s.response) > 0) ++s.response;
    used.insert(s.response);
    proc_clock[static_cast<std::size_t>(s.process)] = s.response;
  }
  for (const Slot& s : slots) {
    OpRecord op;
    op.process = s.process;
    op.reg = 0;
    op.kind = s.is_write ? OpKind::kRead : OpKind::kRead;  // set below
    op.kind = s.is_write ? OpKind::kWrite : OpKind::kRead;
    op.value = s.is_write
                   ? s.value
                   : (sane_reads
                          ? written[rng.uniform(written.size())]
                          : static_cast<history::Value>(rng.uniform(8)));
    op.invoke = s.invoke;
    op.response = s.response;
    h.add(op);
  }
  h.validate();
  return h;
}

/// A second run that shares the first `k` events of `a` and then
/// diverges: the ops still pending after those events respond in a
/// random order (reads with fresh plausible values), interleaved with a
/// new op for each process that is idle by then.  Event times after the
/// shared prefix restart just past it, so the two runs branch at event
/// `k` or later.
History diverging_run(util::Rng& rng, const History& a, std::size_t k,
                      int procs) {
  const history::Time cut = a.events().at(k - 1).time;
  History b;
  b.set_initial(0, 0);
  std::vector<history::Value> written{0};
  std::vector<int> open;  // ops of b not yet responded
  for (const OpRecord& op : a.ops()) {
    if (op.invoke > cut) continue;
    OpRecord copy = op;
    if (op.response == kNoTime || op.response > cut) {
      copy.response = kNoTime;
      open.push_back(b.add(copy));
    } else {
      b.add(copy);
    }
    if (op.is_write()) written.push_back(op.value);
  }
  history::Time clock = cut;
  for (int p = 0; p < procs; ++p) {
    // Respond a random number of open ops, then start p's new op if p
    // is idle.
    while (!open.empty() && rng.chance(1, 2)) {
      const std::size_t i = rng.uniform(open.size());
      b.complete_op(open[i], written[rng.uniform(written.size())], ++clock);
      open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
    }
    const bool busy = std::any_of(open.begin(), open.end(), [&](int id) {
      return b.op(id).process == p;
    });
    if (busy) continue;  // p's pending op is still open
    OpRecord op;
    op.process = p;
    op.reg = 0;
    op.kind = rng.chance(1, 2) ? OpKind::kWrite : OpKind::kRead;
    op.value = op.kind == OpKind::kWrite
                   ? static_cast<history::Value>(200 + written.size())
                   : 0;
    op.invoke = ++clock;
    if (op.is_write()) written.push_back(op.value);
    open.push_back(b.add(op));
  }
  while (!open.empty()) {
    const std::size_t i = rng.uniform(open.size());
    b.complete_op(open[i], written[rng.uniform(written.size())], ++clock);
    open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
  }
  b.validate();
  return b;
}

class PropertySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertySweep, HierarchyOfCriteria) {
  util::Rng rng(GetParam());
  const History h = random_history(rng, 3, 2, /*sane_reads=*/true);
  const bool lin = check_linearizable(h).ok;
  const bool wsl = check_write_strong_linearizable(h).ok;
  const bool strong = check_strong_linearizable(h).ok;
  // strong ⟹ wsl ⟹ lin.
  if (strong) {
    EXPECT_TRUE(wsl) << h.to_string();
  }
  if (wsl) {
    EXPECT_TRUE(lin) << h.to_string();
  }
}

TEST_P(PropertySweep, WitnessesValidateAgainstTheSpec) {
  util::Rng rng(GetParam() ^ 0xABCD);
  const History h = random_history(rng, 3, 2, true);
  const auto lin = check_linearizable(h);
  if (lin.ok) {
    const auto chk = is_legal_sequential(h, lin.order);
    EXPECT_TRUE(chk.ok) << chk.error << '\n' << h.to_string();
  }
}

TEST_P(PropertySweep, LinearizabilityIsPrefixClosed) {
  util::Rng rng(GetParam() ^ 0x1111);
  const History h = random_history(rng, 3, 2, true);
  if (check_linearizable(h).ok) {
    for (const History& prefix : h.all_prefixes()) {
      EXPECT_TRUE(check_linearizable(prefix).ok)
          << "prefix not linearizable:\n"
          << prefix.to_string();
    }
  }
}

TEST_P(PropertySweep, WslOfSetImpliesWslOfSingletons) {
  util::Rng rng(GetParam() ^ 0x2222);
  const History a = random_history(rng, 2, 2, true);
  const History b = random_history(rng, 2, 2, true);
  const auto pair_result =
      check_write_strong_linearizable(std::vector<History>{a, b});
  if (pair_result.ok) {
    EXPECT_TRUE(check_write_strong_linearizable(a).ok);
    EXPECT_TRUE(check_write_strong_linearizable(b).ok);
  }
}

TEST_P(PropertySweep, SwmrLinearizableImpliesWsl) {
  // Theorem 14 at the abstract level: generate single-writer histories;
  // whenever linearizable, WSL must hold too.
  util::Rng rng(GetParam() ^ 0x3333);
  const History h = random_history(rng, 1, 4, true);  // 1 writer...
  // Add overlapping reads from other processes with random plausible
  // values (may or may not be linearizable).
  History with_reads = h;
  for (int i = 0; i < 3; ++i) {
    OpRecord r;
    r.process = 10 + i;
    r.reg = 0;
    r.kind = OpKind::kRead;
    r.value = static_cast<history::Value>(100 + rng.uniform(4));
    r.invoke = 2 + rng.uniform(40) * 3 + static_cast<history::Time>(i);
    r.response = r.invoke + 1 + rng.uniform(25);
    // Keep times unique vs existing events.
    for (const OpRecord& op : with_reads.ops()) {
      if (op.invoke == r.invoke || op.response == r.invoke) r.invoke += 1;
      if (op.invoke == r.response || op.response == r.response) {
        r.response += 1;
      }
    }
    if (r.response <= r.invoke) r.response = r.invoke + 1;
    with_reads.add(r);
  }
  bool valid = true;
  try {
    with_reads.validate();
  } catch (const util::InvariantViolation&) {
    valid = false;  // rare time collision; skip this instance
  }
  if (!valid) return;
  if (check_linearizable(with_reads).ok) {
    const auto wsl = check_write_strong_linearizable(with_reads);
    EXPECT_TRUE(wsl.ok) << wsl.explanation << '\n' << with_reads.to_string();
  }
}

TEST_P(PropertySweep, InsaneReadsAreUsuallyCaughtConsistently) {
  // With arbitrary read values all three checkers must AGREE on the
  // reject side of the hierarchy (no false "strong" on a non-lin run).
  util::Rng rng(GetParam() ^ 0x4444);
  const History h = random_history(rng, 3, 2, /*sane_reads=*/false);
  const bool lin = check_linearizable(h).ok;
  if (!lin) {
    EXPECT_FALSE(check_write_strong_linearizable(h).ok);
    EXPECT_FALSE(check_strong_linearizable(h).ok);
  }
}

TEST_P(PropertySweep, BranchingTreesRespectTheHierarchy) {
  // Two runs that share an event-prefix and then diverge send both tree
  // checkers through their multi-run path: partitions at the branch
  // point and the failed-subtree memo across them.
  util::Rng rng(GetParam() ^ 0x5555);
  // Most random runs are not linearizable.  Redraw each run a few times,
  // so that most trees land where the three criteria can disagree.
  const auto draw = [](const auto& make) {
    History h = make();
    for (int i = 0; i < 16 && !check_linearizable(h).ok; ++i) h = make();
    return h;
  };
  const History a = draw([&] { return random_history(rng, 3, 2, true); });
  const std::size_t k = 1 + rng.uniform(a.events().size() - 1);
  const History b = draw([&] { return diverging_run(rng, a, k, 3); });
  const std::vector<History> tree{a, b};

  const auto strong = check_strong_linearizable(tree);
  const auto wsl = check_write_strong_linearizable(tree, {.memoize = true});
  const bool lin = check_linearizable(a).ok && check_linearizable(b).ok;
  const std::string shown = a.to_string() + "--\n" + b.to_string();
  // strong(set) ⟹ wsl(set) ⟹ every run is linearizable.
  if (strong.ok) {
    EXPECT_TRUE(wsl.ok) << wsl.explanation << '\n' << shown;
  }
  if (wsl.ok) {
    EXPECT_TRUE(lin) << shown;
  }
  // strong(set) ⟹ strong(each run).
  if (strong.ok) {
    EXPECT_TRUE(check_strong_linearizable(a).ok) << shown;
    EXPECT_TRUE(check_strong_linearizable(b).ok) << shown;
  }
  // The memo is a pure accelerator on trees too.
  const auto unmemoized =
      check_write_strong_linearizable(tree, {.memoize = false});
  EXPECT_EQ(wsl.ok, unmemoized.ok) << shown;
  EXPECT_EQ(wsl.write_orders, unmemoized.write_orders) << shown;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Range<std::uint64_t>(1, 61));

}  // namespace
}  // namespace rlt::checker
