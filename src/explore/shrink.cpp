#include "explore/shrink.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace rlt::explore {
namespace {

/// `t` without the half-open index range [begin, end).
ScheduleTrace without_range(const ScheduleTrace& t, std::size_t begin,
                            std::size_t end) {
  ScheduleTrace out;
  out.choices.reserve(t.choices.size() - (end - begin));
  out.choices.insert(out.choices.end(), t.choices.begin(),
                     t.choices.begin() + static_cast<std::ptrdiff_t>(begin));
  out.choices.insert(out.choices.end(),
                     t.choices.begin() + static_cast<std::ptrdiff_t>(end),
                     t.choices.end());
  return out;
}

}  // namespace

ShrinkResult shrink(ScheduleTrace t, const KeepPredicate& keep,
                    std::uint64_t budget) {
  RLT_CHECK_MSG(t.choices.size() <= UINT32_MAX,
                "trace too long to shrink: " << t.choices.size());
  ShrinkResult r;
  const auto spent = [&r] { return r.probes + r.repeats; };
  // Candidates rejected since `t` last changed, as edits of `t`:
  //  * a removed range [begin, end), shifted right while t[begin] ==
  //    t[end].  Such a shift removes an equal element and so yields the
  //    same candidate; two ranges of one length yield the same candidate
  //    exactly when their shifted forms agree;
  //  * choice i lowered to 0, kept as the empty range [i, i), which no
  //    removal uses.
  // Positions are 32-bit (checked above), which halves the memo.
  using Edit = std::pair<std::uint32_t, std::uint32_t>;
  const auto edit = [](std::size_t begin, std::size_t end) {
    return Edit{static_cast<std::uint32_t>(begin),
                static_cast<std::uint32_t>(end)};
  };
  std::vector<Edit> rejected;
  // Tests the candidate `make()` builds from `t` by edit `e`; on success
  // `t` becomes it.  A candidate already rejected is a repeat: it counts
  // against the budget but is not replayed.
  const auto test = [&](const Edit& e, const auto& make) {
    if (std::find(rejected.begin(), rejected.end(), e) != rejected.end()) {
      ++r.repeats;
      return false;
    }
    ++r.probes;
    ScheduleTrace candidate = make();
    if (!keep(candidate)) {
      rejected.push_back(e);
      return false;
    }
    t = std::move(candidate);
    rejected.clear();
    return true;
  };

  // ddmin chunk removal down to granularity 1.  Returns true iff the
  // scan ran to completion (granularity 1, no removal possible) within
  // budget; `changed` reports whether anything was removed.
  auto removal_pass = [&](bool& changed) {
    std::size_t chunks = 2;
    while (!t.choices.empty()) {
      if (spent() >= budget) return false;
      chunks = std::min(chunks, t.choices.size());
      const std::size_t len = t.choices.size();
      bool removed = false;
      for (std::size_t k = 0; k < chunks && spent() < budget; ++k) {
        // Chunk k covers [k*len/chunks, (k+1)*len/chunks) — an exact
        // integer split, every element in exactly one chunk.
        std::size_t begin = k * len / chunks;
        std::size_t end = (k + 1) * len / chunks;
        if (begin == end) continue;
        // The memo's form of the range: the same candidate, shifted right.
        while (end < len && t.choices[begin] == t.choices[end]) {
          ++begin;
          ++end;
        }
        if (test(edit(begin, end),
                 [&] { return without_range(t, begin, end); })) {
          chunks = std::max<std::size_t>(chunks - 1, 2);
          removed = true;
          changed = true;
          break;
        }
      }
      if (removed) continue;
      if (chunks >= t.choices.size()) return true;  // 1-minimal
      chunks = std::min(t.choices.size(), chunks * 2);
    }
    return true;  // empty trace: nothing left to remove
  };

  // Lower surviving choices to 0, the canonical smallest menu index.
  auto lowering_pass = [&](bool& changed) {
    for (std::size_t i = 0; i < t.choices.size(); ++i) {
      if (t.choices[i] == 0) continue;
      if (spent() >= budget) return false;
      if (test(edit(i, i), [&] {
            ScheduleTrace candidate = t;
            candidate.choices[i] = 0;
            return candidate;
          })) {
        changed = true;
      }
    }
    return true;
  };

  // Iterate to a fixpoint: a lowering can unlock a removal and vice
  // versa, and local minimality is only claimed once a full round of
  // both passes completes with no change.
  bool complete = false;
  for (;;) {
    bool changed = false;
    if (!removal_pass(changed)) break;
    if (!lowering_pass(changed)) break;
    if (!changed) {
      complete = true;
      break;
    }
  }

  r.trace = std::move(t);
  r.locally_minimal = complete;
  return r;
}

}  // namespace rlt::explore
