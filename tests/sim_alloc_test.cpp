// Pins that the scheduler's queries do not allocate: once a register's
// menus are cached, `pending_ops()`, `choices_for()` and
// `enabled_actions()` hand out lists the scheduler owns.  Also pins that a
// register's configuration set (checker/frontier.hpp) reuses its buffers:
// lone ops cost no allocation once warmed up.  This file is its own test
// binary, so the counting global operator new below reaches no other
// suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "checker/frontier.hpp"
#include "sim/scheduler.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rlt::sim {
namespace {

Task write_once(Proc& self, RegId reg, Value v) { co_await self.write(reg, v); }

Task read_once(Proc& self, RegId reg) { (void)co_await self.read(reg); }

TEST(SchedulerAlloc, QueriesDoNotAllocate) {
  Scheduler sched(1);
  sched.add_register(0, Semantics::kLinearizable, 0);
  sched.add_register(1, Semantics::kLinearizable, 0);
  sched.add_process("w", [](Proc& p) { return write_once(p, 0, 10); });
  sched.add_process("r0", [](Proc& p) { return read_once(p, 0); });
  sched.add_process("r1", [](Proc& p) { return read_once(p, 1); });
  sched.add_process("idle", [](Proc& p) { return read_once(p, 1); });
  sched.apply(Action::step(0));  // write(R0, 10) pending
  sched.apply(Action::step(1));  // read(R0) pending: 0 or 10
  sched.apply(Action::step(2));  // read(R1) pending: 0
  ASSERT_EQ(sched.pending_ops().size(), 3u);
  // The warm-up computes every menu and sizes the action buffer.
  ASSERT_EQ(sched.enabled_actions().size(), 1u + 1u + 2u + 1u);

  std::size_t seen = 0;
  const std::uint64_t before = g_allocations.load();
  for (int round = 0; round < 100; ++round) {
    for (const PendingOpInfo& info : sched.pending_ops()) {
      seen += sched.choices_for(info.op_id).size();
    }
    seen += sched.enabled_actions().size();
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(seen, 100u * (4u + 5u));
}

TEST(FrontierAlloc, LoneOpsDoNotAllocate) {
  // A write then a read, each alone: invoke, menu and respond.
  checker::Frontier f(0);
  int id = 0;
  std::size_t seen = 0;
  const auto cycle = [&f, &id, &seen](Value v) {
    const int w = id++;
    ASSERT_TRUE(f.invoke(w, OpKind::kWrite, v));
    f.respond(w, v);
    const int r = id++;
    ASSERT_TRUE(f.invoke(r, OpKind::kRead, 0));
    seen += f.read_values(r).size();
    f.respond(r, v);
    ASSERT_TRUE(f.feasible());
  };
  for (Value v = 0; v < 4; ++v) cycle(v);  // warm-up sizes every buffer
  const std::uint64_t before = g_allocations.load();
  for (Value v = 0; v < 100; ++v) cycle(v);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(seen, 104u);
  EXPECT_EQ(f.peak_configs(), 1u);
}

}  // namespace
}  // namespace rlt::sim
