// Forensics layer: certificate minimization must produce a sub-history
// that independently re-fails the checker; the timeline recorder must
// capture network events deterministically (with lifecycle events exempt
// from the message cap); and the rendered artifact must be a pure
// function of its inputs — the property the --forensics CLI contract
// (byte-identity across threads and shards) rests on.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "checker/lin_checker.hpp"
#include "history/history.hpp"
#include "mp/network.hpp"
#include "obs/forensics.hpp"
#include "obs/timeline.hpp"

namespace rlt {
namespace {

using history::History;
using history::kNoTime;
using history::OpKind;
using history::OpRecord;

OpRecord op(int process, int reg, OpKind kind, history::Value v,
            history::Time invoke, history::Time response) {
  OpRecord r;
  r.process = process;
  r.reg = reg;
  r.kind = kind;
  r.value = v;
  r.invoke = invoke;
  r.response = response;
  return r;
}

/// The classic new/old inversion (reads R0=1 then R0=0 strictly after a
/// completed write of 1), padded with irrelevant traffic on R1 that a
/// minimal certificate must discard.
History inversion_history() {
  History h;
  h.set_initial(0, 0);
  h.set_initial(1, 0);
  h.add(op(0, 0, OpKind::kWrite, 1, 1, 2));
  h.add(op(1, 0, OpKind::kRead, 1, 3, 4));
  h.add(op(2, 0, OpKind::kRead, 0, 5, 6));  // stale: after both of the above
  h.add(op(0, 1, OpKind::kWrite, 7, 7, 8));
  h.add(op(1, 1, OpKind::kRead, 7, 9, 10));
  return h;
}

TEST(Certificate, MinimizesAndReverifies) {
  const History h = inversion_history();
  ASSERT_FALSE(checker::check_linearizable(h).ok);
  const obs::Certificate c = obs::make_certificate(h);
  EXPECT_EQ(c.checker, "linearizability");
  EXPECT_TRUE(c.reverified);
  EXPECT_FALSE(c.constraint.empty());
  // 1-minimality dropped the R1 ops (3, 4); the inversion needs the
  // write only through the first read's value, and greedy removal in id
  // order strips the write too (a read of a never-written 1 already
  // fails), so the core is a subset of the three R0 ops.
  EXPECT_FALSE(c.ops.empty());
  EXPECT_LT(c.ops.size(), h.size());
  for (const int id : c.ops) {
    EXPECT_TRUE(id >= 0 && id < static_cast<int>(h.size()));
    EXPECT_EQ(h.op(id).reg, 0) << "R1 padding survived minimization";
  }
  // Ascending original ids, no duplicates.
  EXPECT_TRUE(std::is_sorted(c.ops.begin(), c.ops.end()));
  EXPECT_TRUE(std::adjacent_find(c.ops.begin(), c.ops.end()) ==
              c.ops.end());
  // Full probe + at least one removal round + re-verify.
  EXPECT_GE(c.probes, h.size() + 2);
}

TEST(Certificate, HonestWhenCheckerPasses) {
  History h;
  h.set_initial(0, 0);
  h.add(op(0, 0, OpKind::kWrite, 1, 1, 2));
  h.add(op(1, 0, OpKind::kRead, 1, 3, 4));
  ASSERT_TRUE(checker::check_linearizable(h).ok);
  const obs::Certificate c = obs::make_certificate(h);
  EXPECT_FALSE(c.reverified);
  EXPECT_EQ(c.constraint, "checker did not reproduce the reported failure");
  EXPECT_TRUE(c.ops.empty());
}

TEST(Timeline, RecordsEventsAndEdges) {
  obs::TimelineRecorder t;
  mp::Message m;
  m.from = 0;
  m.to = 1;
  m.type = 3;
  m.seq = 7;
  t.on_send(m);
  t.on_deliver(m);
  t.on_drop(m, "partition-cut");
  t.on_crash(1);
  t.note_fault("partition cut { 0 }|{ 1 2 } at iteration 5");
  t.on_recover(1);
  const auto& ev = t.events();
  ASSERT_EQ(ev.size(), 6u);
  EXPECT_EQ(ev[0].kind, obs::TimelineEvent::Kind::kSend);
  EXPECT_EQ(ev[1].kind, obs::TimelineEvent::Kind::kDeliver);
  EXPECT_EQ(ev[1].seq, 7u);
  EXPECT_EQ(ev[2].detail, "partition-cut");
  EXPECT_EQ(ev[3].kind, obs::TimelineEvent::Kind::kCrash);
  EXPECT_EQ(t.elided(), 0u);
  // last_fault_touching prefers the most recent matching event, and
  // node scoping works: node 1 saw crash/recover, node 0 only the
  // partition fault.
  EXPECT_EQ(t.last_fault_touching(1), "node 1 recovered");
  EXPECT_EQ(t.last_fault_touching(0),
            "partition cut { 0 }|{ 1 2 } at iteration 5");
  EXPECT_EQ(t.last_fault_touching(-1), "node 1 recovered");
}

TEST(Timeline, CapExemptsLifecycleEvents) {
  obs::TimelineRecorder t(/*message_cap=*/4);
  mp::Message m;
  m.from = 0;
  m.to = 1;
  for (int i = 0; i < 10; ++i) {
    m.seq = static_cast<std::uint64_t>(i);
    t.on_send(m);
  }
  EXPECT_EQ(t.events().size(), 4u);
  EXPECT_EQ(t.elided(), 6u);
  // Crash/recover/fault events always land, even over the cap.
  t.on_crash(0);
  t.note_fault("partition healed at iteration 9");
  ASSERT_EQ(t.events().size(), 6u);
  EXPECT_EQ(t.events().back().kind, obs::TimelineEvent::Kind::kFault);
}

TEST(Artifact, PureFunctionOfInputs) {
  const History h = inversion_history();
  obs::TimelineRecorder t;
  mp::Message m;
  m.from = 0;
  m.to = 1;
  m.seq = 1;
  t.on_send(m);
  t.on_deliver(m);
  obs::ForensicsCapture cap;
  cap.timeline = &t;
  obs::LedgerEntry le;
  le.token = 0;
  le.op_id = 2;
  le.node = 1;
  le.phase = "read-query";
  le.acks = {0};
  le.quorum = 2;
  le.n = 3;
  le.cause = "no-live-quorum";
  le.cut_by = "node 2 crashed";
  cap.ledger.push_back(le);

  const std::string a =
      obs::build_artifact("k/seed0", "VIOLATION", "lin violated", h, cap);
  const std::string b =
      obs::build_artifact("k/seed0", "VIOLATION", "lin violated", h, cap);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.back(), '\n');
  EXPECT_NE(a.find("\"forensics\":1"), std::string::npos);
  EXPECT_NE(a.find("\"certificate\":{"), std::string::npos);
  EXPECT_NE(a.find("\"reverified\":true"), std::string::npos);
  EXPECT_NE(a.find("\"cause\":\"no-live-quorum\""), std::string::npos);
  EXPECT_NE(a.find("\"cut_by\":\"node 2 crashed\""), std::string::npos);
  // The send->deliver edge, matched by seq.
  EXPECT_NE(a.find("\"edges\":[{\"from\":0,\"to\":1}]"), std::string::npos);
  // Blocked artifacts carry no certificate (nothing failed a checker).
  const std::string blocked =
      obs::build_artifact("k/seed0", "blocked", "quiescent", h, cap);
  EXPECT_EQ(blocked.find("\"certificate\""), std::string::npos);
}

TEST(Artifact, PendingOpsOmitResponse) {
  History h;
  h.set_initial(0, 0);
  h.add(op(0, 0, OpKind::kWrite, 5, 1, kNoTime));
  const std::string a = obs::build_artifact(
      "k", "blocked", "quiescent with 1 pending op(s)", h, {});
  EXPECT_NE(a.find("\"pending\":true"), std::string::npos);
  EXPECT_EQ(a.find("\"response\""), std::string::npos);
}

}  // namespace
}  // namespace rlt
