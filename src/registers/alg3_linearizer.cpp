#include "registers/alg3_linearizer.hpp"

#include <algorithm>
#include <compare>
#include <map>
#include <sstream>

#include "util/assert.hpp"

namespace rlt::registers {

namespace {

/// Writes that performed their line-8 write to Val[-], in time order —
/// the events Algorithm 3 scans.
std::vector<int> val_write_order(const Alg2Trace& trace) {
  std::vector<int> idx;
  for (std::size_t i = 0; i < trace.writes.size(); ++i) {
    if (trace.writes[i].val_write_time != 0) idx.push_back(static_cast<int>(i));
  }
  std::sort(idx.begin(), idx.end(), [&trace](int a, int b) {
    return trace.writes[static_cast<std::size_t>(a)].val_write_time <
           trace.writes[static_cast<std::size_t>(b)].val_write_time;
  });
  return idx;
}

/// Entry `i` of write `w`'s new_ts as Algorithm 3 reads it at time `t`:
/// partial_ts_at's entry, without building the vector.
std::uint64_t entry_at(const Alg2WriteTrace& w, std::size_t i, Time t,
                       bool infinite_init) {
  const Time set = w.entry_set_time[i];
  if (set != 0 && set <= t) return w.entry_value[i];
  return infinite_init ? VectorTs::kInf : 0;
}

}  // namespace

Alg3Result run_alg3(const Alg2Trace& trace) {
  // ---- Lines 1-20: linearization of write operations ----
  std::vector<int> ws;  // trace write indices, linearized order
  std::vector<bool> in_ws(trace.writes.size(), false);

  for (const int wi_idx : val_write_order(trace)) {
    const Alg2WriteTrace& wi = trace.writes[static_cast<std::size_t>(wi_idx)];
    const Time ti = wi.val_write_time;
    if (in_ws[static_cast<std::size_t>(wi_idx)]) continue;  // lines 6, 11-13

    // Line 7: write operations active at ti and not yet linearized.
    // Line 8: their (possibly incomplete) timestamps at ti.
    // Line 9: B_i — those with timestamp <= wi's.
    struct Candidate {
      int idx;
      VectorTs ts;
    };
    std::vector<Candidate> bi;
    for (std::size_t w = 0; w < trace.writes.size(); ++w) {
      if (in_ws[w]) continue;
      const Alg2WriteTrace& cand = trace.writes[w];
      const bool active =
          cand.start <= ti && (cand.end == history::kNoTime || ti <= cand.end);
      if (!active) continue;
      VectorTs ts = static_cast<int>(w) == wi_idx
                        ? wi.final_ts
                        : cand.partial_ts_at(ti, trace.infinite_init);
      if (ts <= wi.final_ts) {
        bi.push_back(Candidate{static_cast<int>(w), std::move(ts)});
      }
    }
    // Line 10: append B_i in increasing timestamp order.  Equal partial
    // timestamps are broken by writer slot; the paper's proof shows no
    // read can ever observe the relative order of two non-wi members of
    // B_i (Claim 42.1.1), so any deterministic tie-break is sound — and
    // determinism is what Claim 49.1's prefix argument needs.
    std::sort(bi.begin(), bi.end(), [&trace](const Candidate& a,
                                             const Candidate& b) {
      const auto cmp = a.ts.compare(b.ts);
      if (cmp != std::strong_ordering::equal) {
        return cmp == std::strong_ordering::less;
      }
      return trace.writes[static_cast<std::size_t>(a.idx)].writer <
             trace.writes[static_cast<std::size_t>(b.idx)].writer;
    });
    for (const Candidate& c : bi) {
      ws.push_back(c.idx);
      in_ws[static_cast<std::size_t>(c.idx)] = true;
    }
    RLT_CHECK_MSG(in_ws[static_cast<std::size_t>(wi_idx)],
                  "Algorithm 3: wi must be in its own B_i");
  }

  // ---- Lines 21-32: linearization of read operations ----
  // Group completed reads by the timestamp of the value they returned
  // (timestamps identify writes uniquely, Observation 24).
  std::map<std::string, std::vector<int>> groups;  // ts key -> read indices
  for (std::size_t r = 0; r < trace.reads.size(); ++r) {
    groups[trace.reads[r].ts.to_string()].push_back(static_cast<int>(r));
  }
  for (auto& [key, reads] : groups) {
    std::sort(reads.begin(), reads.end(), [&trace](int a, int b) {
      return trace.reads[static_cast<std::size_t>(a)].start <
             trace.reads[static_cast<std::size_t>(b)].start;
    });
  }

  Alg3Result result;
  // Reads of the initial value (timestamp [0 … 0]) come first (line 26).
  const std::string initial_key = VectorTs::zeros(trace.n).to_string();
  if (const auto it = groups.find(initial_key); it != groups.end()) {
    for (const int r : it->second) {
      result.sequence.push_back(
          trace.reads[static_cast<std::size_t>(r)].hl_op_id);
    }
  }
  // Each write, followed by the reads that returned its value
  // (lines 28-29: after w, before any subsequent write).
  for (const int w : ws) {
    const Alg2WriteTrace& wt = trace.writes[static_cast<std::size_t>(w)];
    result.sequence.push_back(wt.hl_op_id);
    result.write_sequence.push_back(wt.hl_op_id);
    if (const auto it = groups.find(wt.final_ts.to_string());
        it != groups.end()) {
      for (const int r : it->second) {
        result.sequence.push_back(
            trace.reads[static_cast<std::size_t>(r)].hl_op_id);
      }
    }
  }
  return result;
}

Alg3Verification verify_alg3_wsl(const Alg2Trace& trace,
                                 const history::History& hl) {
  Alg3Verification out;

  // Observation 24: distinct writes publish distinct timestamps.
  {
    std::map<std::string, int> seen;
    for (std::size_t w = 0; w < trace.writes.size(); ++w) {
      const Alg2WriteTrace& wt = trace.writes[w];
      if (wt.val_write_time == 0) continue;
      const auto [it, inserted] =
          seen.emplace(wt.final_ts.to_string(), static_cast<int>(w));
      if (!inserted) {
        out.error = "Observation 24 violated: duplicate timestamp " +
                    wt.final_ts.to_string();
        return out;
      }
    }
  }

  const Alg3Result full = run_alg3(trace);

  // (L): the output is a legal linearization of the high-level history.
  {
    const checker::SequentialCheck chk =
        checker::is_legal_sequential(hl, full.sequence);
    if (!chk.ok) {
      out.error = "Algorithm 3 output is not a linearization: " + chk.error;
      return out;
    }
  }

  // (P): the write sequence on every prefix is a prefix of the full one.
  // Event times at which the trace (and thus WS) can change:
  std::vector<Time> times;
  for (const Alg2WriteTrace& w : trace.writes) {
    times.push_back(w.start);
    if (w.end != history::kNoTime) times.push_back(w.end);
    if (w.val_write_time != 0) times.push_back(w.val_write_time);
    for (const Time t : w.entry_set_time) {
      if (t != 0) times.push_back(t);
    }
  }
  for (const Alg2ReadTrace& r : trace.reads) {
    times.push_back(r.start);
    if (r.end != history::kNoTime) times.push_back(r.end);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());

  for (const Time t : times) {
    const Alg2Trace prefix = trace.prefix_at(t);
    const Alg3Result part = run_alg3(prefix);
    if (!checker::is_prefix_of(part.write_sequence, full.write_sequence)) {
      std::ostringstream os;
      os << "prefix property violated at t=" << t << ": WS(prefix) = [";
      for (const int id : part.write_sequence) os << ' ' << id;
      os << " ] is not a prefix of WS(full) = [";
      for (const int id : full.write_sequence) os << ' ' << id;
      os << " ]";
      out.error = os.str();
      return out;
    }
    // (L) on the prefix as well (ids are stable: invocation order == id
    // order, so an event-prefix keeps a prefix of the id space).
    const history::History hp = hl.prefix_at(t);
    std::vector<int> seq;
    for (const int id : part.sequence) {
      if (id < static_cast<int>(hp.size())) seq.push_back(id);
    }
    const checker::SequentialCheck chk = checker::is_legal_sequential(hp, seq);
    if (!chk.ok) {
      out.error = "Algorithm 3 prefix output is not a linearization at t=" +
                  std::to_string(t) + ": " + chk.error;
      return out;
    }
    ++out.prefixes_checked;
  }
  out.ok = true;
  return out;
}

checker::SequentialCheck check_alg3_wsl(const Alg2Trace& trace,
                                        const history::History& hl) {
  const auto fail = [](std::string why) {
    return checker::SequentialCheck{false, std::move(why)};
  };
  using history::kNoTime;
  const std::size_t nw = trace.writes.size();
  const auto n = static_cast<std::size_t>(trace.n);
  for (const Alg2WriteTrace& w : trace.writes) {
    if (w.entry_set_time.size() != n || w.entry_value.size() != n ||
        (w.val_write_time != 0 && w.final_ts.size() != trace.n)) {
      return fail("malformed trace: a timestamp is not " +
                  std::to_string(n) + " entries wide");
    }
  }

  // The writes that published a timestamp, ordered by it: Observation 24
  // (distinct writes, distinct timestamps) and the index reads join by.
  std::vector<int> by_ts;
  for (std::size_t w = 0; w < nw; ++w) {
    if (trace.writes[w].final_ts.size() == trace.n) {
      by_ts.push_back(static_cast<int>(w));
    }
  }
  const auto ts_of = [&trace](int w) -> const VectorTs& {
    return trace.writes[static_cast<std::size_t>(w)].final_ts;
  };
  std::sort(by_ts.begin(), by_ts.end(),
            [&ts_of](int a, int b) { return ts_of(a) < ts_of(b); });
  for (std::size_t i = 1; i < by_ts.size(); ++i) {
    if (ts_of(by_ts[i]) == ts_of(by_ts[i - 1])) {
      return fail("Observation 24 violated: duplicate timestamp " +
                  ts_of(by_ts[i]).to_string());
    }
  }

  // Lines 1-20: one walk over the line-8 writes in time order.  `seen`
  // holds, row by row, each candidate's new_ts as known at ti.
  std::vector<Time> joined(nw, kNoTime);  // when each write joined WS
  std::vector<int> ws;
  std::vector<int> bi;
  std::vector<std::uint64_t> seen(nw * n);
  const auto row_cmp = [&seen, n](int a, int b) {
    const auto ra = seen.begin() + static_cast<std::ptrdiff_t>(
                                       static_cast<std::size_t>(a) * n);
    const auto rb = seen.begin() + static_cast<std::ptrdiff_t>(
                                       static_cast<std::size_t>(b) * n);
    return std::lexicographical_compare_three_way(
        ra, ra + static_cast<std::ptrdiff_t>(n), rb,
        rb + static_cast<std::ptrdiff_t>(n));
  };
  for (const int wi : val_write_order(trace)) {
    const auto wi_idx = static_cast<std::size_t>(wi);
    if (joined[wi_idx] != kNoTime) continue;  // lines 6, 11-13
    const Time ti = trace.writes[wi_idx].val_write_time;
    for (std::size_t i = 0; i < n; ++i) {
      seen[wi_idx * n + i] = trace.writes[wi_idx].final_ts[static_cast<int>(i)];
    }
    // Lines 7-9: the active writes not in WS whose new_ts at ti is at
    // most wi's, in index order as run_alg3 collects them.
    bi.clear();
    for (std::size_t w = 0; w < nw; ++w) {
      const Alg2WriteTrace& cand = trace.writes[w];
      if (joined[w] != kNoTime || cand.start > ti ||
          (cand.end != kNoTime && ti > cand.end)) {
        continue;
      }
      if (w != wi_idx) {
        for (std::size_t i = 0; i < n; ++i) {
          seen[w * n + i] = entry_at(cand, i, ti, trace.infinite_init);
        }
      }
      if (row_cmp(static_cast<int>(w), wi) <= 0) {
        bi.push_back(static_cast<int>(w));
      }
    }
    // Line 10, with run_alg3's tie-break by writer slot.
    std::sort(bi.begin(), bi.end(), [&](int a, int b) {
      const auto cmp = row_cmp(a, b);
      if (cmp != 0) return cmp < 0;
      return trace.writes[static_cast<std::size_t>(a)].writer <
             trace.writes[static_cast<std::size_t>(b)].writer;
    });
    for (const int c : bi) {
      ws.push_back(c);
      joined[static_cast<std::size_t>(c)] = ti;
    }
    if (joined[wi_idx] == kNoTime) {
      return fail("Algorithm 3: w_i is missing from its own B_i");
    }
  }
  for (std::size_t w = 0; w < nw; ++w) {
    const Alg2WriteTrace& wt = trace.writes[w];
    if (wt.end != kNoTime && joined[w] > wt.end) {
      return fail("write op" + std::to_string(wt.hl_op_id) +
                  " responded at t=" + std::to_string(wt.end) +
                  " before it joined WS");
    }
  }

  // Lines 21-32: each completed read joins its write's group, found by
  // timestamp; group 0 holds the reads of the initial value, group k + 1
  // follows the k-th write of WS.
  std::vector<std::size_t> group_of(nw, 0);
  for (std::size_t k = 0; k < ws.size(); ++k) {
    group_of[static_cast<std::size_t>(ws[k])] = k + 1;
  }
  struct Placed {
    std::size_t group;
    Time start;
    int id;
  };
  std::vector<Placed> reads;
  reads.reserve(trace.reads.size());
  const VectorTs initial_ts = VectorTs::zeros(trace.n);
  for (const Alg2ReadTrace& r : trace.reads) {
    if (r.ts == initial_ts) {
      reads.push_back(Placed{0, r.start, r.hl_op_id});
      continue;
    }
    const auto it = std::lower_bound(
        by_ts.begin(), by_ts.end(), r.ts,
        [&ts_of](int w, const VectorTs& ts) { return ts_of(w) < ts; });
    if (it == by_ts.end() || ts_of(*it) != r.ts) {
      return fail("read op" + std::to_string(r.hl_op_id) + " returned " +
                  r.ts.to_string() + ", which no write published");
    }
    const auto w = static_cast<std::size_t>(*it);
    if (joined[w] > r.end) {
      return fail("read op" + std::to_string(r.hl_op_id) +
                  " responded at t=" + std::to_string(r.end) +
                  " before its write joined WS");
    }
    reads.push_back(Placed{group_of[w], r.start, r.hl_op_id});
  }
  std::sort(reads.begin(), reads.end(), [](const Placed& a, const Placed& b) {
    return a.group != b.group ? a.group < b.group : a.start < b.start;
  });

  std::vector<int> sequence;
  sequence.reserve(ws.size() + reads.size());
  auto r = reads.begin();
  for (std::size_t group = 0; group <= ws.size(); ++group) {
    if (group > 0) {
      sequence.push_back(
          trace.writes[static_cast<std::size_t>(ws[group - 1])].hl_op_id);
    }
    for (; r != reads.end() && r->group == group; ++r) {
      sequence.push_back(r->id);
    }
  }
  checker::SequentialCheck chk = checker::is_legal_sequential(hl, sequence);
  if (!chk.ok) {
    chk.error = "Algorithm 3 output is not a linearization: " + chk.error;
  }
  return chk;
}

}  // namespace rlt::registers
