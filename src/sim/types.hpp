// Shared simulator types: actions the adversary chooses among, response
// choices exposed by register semantic models, pending-operation info.
#pragma once

#include <vector>

#include "history/event.hpp"

namespace rlt::sim {

using history::OpKind;
using history::ProcessId;
using history::Time;
using history::Value;
using RegId = history::RegisterId;

/// One way a register model is willing to complete a pending operation:
/// its value plus its commit extension, nothing else.
///
/// For reads, `value` is the value the read would return; for writes, the
/// written value.  For write strongly-linearizable registers,
/// `commit_extension` lists the write operations (global history op ids,
/// in order) that responding with this choice irrevocably appends to the
/// register's committed write order — the on-line decision that
/// Definition 4 forces.  It is empty for the other models.
struct ResponseChoice {
  Value value = 0;
  std::vector<int> commit_extension;
};

/// A pending (invoked, unresponded) operation on a modeled register.
struct PendingOpInfo {
  int op_id = -1;  ///< Global history op id.
  ProcessId process = -1;
  RegId reg = -1;
  OpKind kind = OpKind::kRead;
  Value value = 0;  ///< Written value (writes only).
  Time invoked = 0;
};

/// An action the adversary may schedule next.
struct Action {
  enum class Kind {
    kStep,     ///< Resume a process to its next suspension point.
    kRespond,  ///< Complete a pending register operation with a choice.
  };
  Kind kind = Kind::kStep;
  ProcessId process = -1;  ///< kStep: the process; kRespond: the op's owner.
  int op_id = -1;          ///< kRespond only.
  ResponseChoice choice;   ///< kRespond only.

  static Action step(ProcessId p) {
    Action a;
    a.kind = Kind::kStep;
    a.process = p;
    return a;
  }
  static Action respond(ProcessId p, int op_id, ResponseChoice choice) {
    Action a;
    a.kind = Kind::kRespond;
    a.process = p;
    a.op_id = op_id;
    a.choice = std::move(choice);
    return a;
  }
};

/// A recorded coin flip (process, outcome, time) — the strong adversary
/// may inspect these after they happen.
struct CoinRecord {
  ProcessId process = -1;
  int outcome = 0;
  Time time = 0;
};

}  // namespace rlt::sim
