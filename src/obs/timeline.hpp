// Deterministic intra-scenario event timeline for forensics artifacts.
//
// A TimelineRecorder hangs off Network::set_observer and records every
// send/delivery/drop/duplicate plus crash/recovery flips, in the exact
// order the driver produced them; the driver adds named fault events
// (partition cuts, planned crashes, recoveries) via note_fault.  The
// recording is a pure function of the scenario, so the artifact built
// from it is byte-identical across --threads and shards.  It is
// observability only: recorders never alter behavior and never feed
// digests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mp/network.hpp"

namespace rlt::obs {

/// One timeline event.  Message kinds carry the envelope coordinates;
/// node-lifecycle and driver-fault kinds carry a description instead.
struct TimelineEvent {
  enum class Kind : std::uint8_t {
    kSend,
    kDeliver,
    kDrop,
    kDuplicate,
    kCrash,
    kRecover,
    kFault,  ///< driver-level note (partition cut/heal, planned crash, ...)
  };
  Kind kind = Kind::kSend;
  int from = -1;
  int to = -1;
  std::int64_t type = 0;
  std::uint64_t seq = 0;       ///< network send seq (dups share it)
  std::string detail;          ///< drop reason / fault description
};

[[nodiscard]] const char* to_string(TimelineEvent::Kind k) noexcept;

/// Records network events and driver fault notes.  Message events are
/// capped (a budget-length run can consume a million envelopes; the
/// artifact needs the shape, not the flood) — past the cap they are
/// counted, not stored.  Crash/recover/fault events are always kept:
/// they are few, and the quorum ledger names them.
class TimelineRecorder final : public mp::NetObserver {
 public:
  static constexpr std::size_t kDefaultMessageCap = 4096;

  explicit TimelineRecorder(std::size_t message_cap = kDefaultMessageCap)
      : message_cap_(message_cap) {}

  void on_send(const mp::Message& m) override;
  void on_deliver(const mp::Message& m) override;
  void on_drop(const mp::Message& m, const char* reason) override;
  void on_duplicate(const mp::Message& m) override;
  void on_crash(mp::NodeId n) override;
  void on_recover(mp::NodeId n) override;

  /// Driver-level fault note, e.g. "partition cut {0}|{1,2} at it=12".
  void note_fault(std::string detail);

  [[nodiscard]] const std::vector<TimelineEvent>& events() const noexcept {
    return events_;
  }
  /// Message events elided past the cap (0 when the full flood fit).
  [[nodiscard]] std::uint64_t elided() const noexcept { return elided_; }

  /// Most recent fault-class event (kCrash/kRecover/kFault) whose
  /// description or node matches `node`, as a human-readable string;
  /// empty when none was recorded.  Used to name the cutting fault in
  /// quorum ledgers.
  [[nodiscard]] std::string last_fault_touching(int node) const;

 private:
  void push_message(TimelineEvent::Kind kind, const mp::Message& m,
                    const char* detail);

  std::size_t message_cap_;
  std::size_t lifecycle_ = 0;  ///< crash/recover/fault events (never capped)
  std::uint64_t elided_ = 0;
  std::vector<TimelineEvent> events_;
};

}  // namespace rlt::obs
