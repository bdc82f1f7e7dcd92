#include "checker/frontier.hpp"

#include <algorithm>
#include <bit>
#include <tuple>
#include <utility>

#include "checker/tree_common.hpp"
#include "util/assert.hpp"

namespace rlt::checker {
namespace detail {

/// Covering is checked in groups of at most this many configurations
/// (quadratic), larger ones lose duplicates only.  On `--online
/// --processes 12,14,16 --algorithms abd,alg4,alg2 --seeds 0:3` the peak
/// set reads 35,192 / 312,544 / 866,688 with duplicates alone, 25,904 /
/// 166,240 / 620,928 at 64, and 25,256 / 166,240 at 256, which is slower.
constexpr std::size_t kCompared = 64;

template <class Place>
void ConfigSet<Place>::see(std::vector<Seen>& entries, Value value,
                           std::uint32_t reads) {
  if (reads == 0) return;  // no open read, no entries
  const auto it = std::ranges::lower_bound(entries, value, {}, &Seen::value);
  if (it != entries.end() && it->value == value) {
    it->reads = std::max(it->reads, reads);
  } else {
    entries.insert(it, Seen{value, reads});
  }
}

template <class Place>
ConfigSet<Place>::ConfigSet(Value initial, std::size_t max_configs)
    : max_configs_(max_configs) {
  set_.configs.push_back(Config{.value = initial});
}

template <class Place>
int ConfigSet<Place>::slot_of(int id) const {
  for (std::uint64_t used = used_; used != 0; used &= used - 1) {
    const int slot = std::countr_zero(used);
    if (ops_[static_cast<std::size_t>(slot)].id == id) return slot;
  }
  RLT_CHECK_MSG(false, "op " << id << " is not open");
  return -1;
}

template <class Place>
std::uint32_t ConfigSet<Place>::read_index(int slot) const {
  return static_cast<std::uint32_t>(std::ranges::find(reads_, slot) -
                                    reads_.begin());
}

template <class Place>
bool ConfigSet<Place>::invoke(int id, OpKind kind, Value value) {
  if (open() == kMaxOpen) return false;
  ++events_;
  const int slot = std::countr_one(used_);
  ops_[static_cast<std::size_t>(slot)] =
      Op{id, kind, kind == OpKind::kWrite ? value : Value{0}};
  used_ |= 1ULL << slot;
  if (kind == OpKind::kWrite) {
    writes_ |= 1ULL << slot;
    return true;
  }
  // The new read has seen each configuration's current value, as every
  // older open read has: the value's entry now covers all.
  reads_.push_back(slot);
  for (const Config& c : set_.configs) {
    const std::span<const Seen> from = set_.entries(c);
    scratch_.assign(from.begin(), from.end());
    see(scratch_, c.value, static_cast<std::uint32_t>(reads_.size()));
    add(next_, c, scratch_);
  }
  std::swap(set_, next_);
  next_.configs.clear();
  next_.seen.clear();
  return true;
}

template <class Place>
bool ConfigSet<Place>::responds(const Set& from, const Config& c, int slot,
                                std::uint32_t ri, Value result) const {
  if (ops_[static_cast<std::size_t>(slot)].kind == OpKind::kWrite) {
    return (c.lin >> slot & 1) != 0;
  }
  return std::ranges::any_of(from.entries(c), [&](const Seen& e) {
    return e.value == result && e.reads > ri;
  });
}

template <class Place>
void ConfigSet<Place>::add(Set& out, const Config& c,
                           std::span<const Seen> entries) {
  // Duplicates wait for `normalize`, so bound the set before it too.
  if (out.configs.size() >= 2 * max_configs_) {
    overflowed_ = true;
    return;
  }
  Config d = c;
  d.first = static_cast<std::uint32_t>(out.seen.size());
  d.count = static_cast<std::uint32_t>(entries.size());
  out.seen.insert(out.seen.end(), entries.begin(), entries.end());
  out.configs.push_back(d);
}

template <class Place>
void ConfigSet<Place>::normalize(Set& from, Set& to) {
  if (from.configs.size() <= 1) {  // a lone op's set: nothing to compare
    std::swap(from, to);
    from.configs.clear();
    from.seen.clear();
    return;
  }
  // Sort by value and linearized writes (a group), then by a hash of the
  // entries, so a comparison rarely reads them; equal configurations end
  // up adjacent.
  keys_.resize(from.configs.size());
  for (std::uint32_t k = 0; k < keys_.size(); ++k) {
    const Config& c = from.configs[k];
    std::uint64_t hash = 0x9e3779b97f4a7c15ULL;
    for (const Seen& e : from.entries(c)) {
      hash = (hash ^ static_cast<std::uint64_t>(e.value)) * 0x100000001b3ULL;
      hash = (hash ^ e.reads) * 0x100000001b3ULL;
    }
    keys_[k] = Key{c.value, c.lin, hash, k, false};
  }
  const auto less = [&from](const Key& x, const Key& y) {
    const auto kx = std::tie(x.value, x.lin, x.hash);
    const auto ky = std::tie(y.value, y.lin, y.hash);
    if (kx != ky) return kx < ky;
    const Config& a = from.configs[x.index];
    const Config& b = from.configs[y.index];
    if (a.place != b.place) return a.place < b.place;
    return std::ranges::lexicographical_compare(from.entries(a),
                                                from.entries(b));
  };
  // `a` covers `b` (see the file comment); entries are sorted by value.
  const auto covers = [&from](const Config& a, const Config& b) {
    if (!a.place.covers(b.place)) return false;
    const std::span<const Seen> ea = from.entries(a);
    auto it = ea.begin();
    for (const Seen& e : from.entries(b)) {
      while (it != ea.end() && it->value < e.value) ++it;
      if (it == ea.end() || it->value != e.value || it->reads < e.reads) {
        return false;
      }
    }
    return true;
  };
  std::ranges::sort(keys_, less);
  // The first of a run of equal configurations stands for it.
  const auto duplicate = [&](std::size_t i, std::size_t lo) {
    return i > lo && !less(keys_[i - 1], keys_[i]);
  };
  const auto group = [](const Key& k) { return std::pair(k.value, k.lin); };
  for (std::size_t lo = 0, hi = 0; lo < keys_.size(); lo = hi) {
    while (hi < keys_.size() && group(keys_[hi]) == group(keys_[lo])) ++hi;
    for (std::size_t i = lo; i < hi; ++i) {
      bool& dropped = keys_[i].dropped;
      dropped = duplicate(i, lo);
      for (std::size_t j = lo; !dropped && hi - lo <= kCompared && j < hi;
           ++j) {
        dropped = j != i && !duplicate(j, lo) &&
                  covers(from.configs[keys_[j].index],
                         from.configs[keys_[i].index]);
      }
    }
  }
  to.configs.clear();
  to.seen.clear();
  for (const Key& k : keys_) {
    if (k.dropped) continue;
    if (to.configs.size() == max_configs_) {
      overflowed_ = true;
      break;
    }
    add(to, from.configs[k.index], from.entries(from.configs[k.index]));
  }
  from.configs.clear();
  from.seen.clear();
}

template <class Place>
void ConfigSet<Place>::keep(Config c, std::span<const Seen> entries, int slot,
                            std::uint32_t ri) {
  const bool read = ops_[static_cast<std::size_t>(slot)].kind == OpKind::kRead;
  c.lin &= ~(1ULL << slot);
  c.place.forget(1ULL << slot, read, ri);
  if (!read) {
    add(next_, c, entries);
    return;
  }
  // The read leaves every entry, and entries no open read holds go.
  kept_.clear();
  for (Seen e : entries) {
    if (e.reads > ri) --e.reads;
    if (e.reads > 0) kept_.push_back(e);
  }
  add(next_, c, kept_);
}

template <class Place>
void ConfigSet<Place>::finish(int slot, std::uint32_t ri) {
  if (ops_[static_cast<std::size_t>(slot)].kind == OpKind::kRead) {
    reads_.erase(reads_.begin() + ri);
  }
  writes_ &= ~(1ULL << slot);
  used_ &= ~(1ULL << slot);
  ++events_;
  normalize(next_, set_);
  peak_ = std::max(peak_, set_.configs.size());
}

template class ConfigSet<FreePlace>;
template class ConfigSet<GonePlace>;

}  // namespace detail

void Frontier::respond(int id, Value result) {
  const int slot = slot_of(id);
  const bool read = !is_write(id);
  const std::uint32_t ri = read ? read_index(slot) : 0;
  std::uint64_t sources = 0;  // the open writes of a read's result
  for (std::uint64_t w = writes_; w != 0; w &= w - 1) {
    const int u = std::countr_zero(w);
    if (ops_[static_cast<std::size_t>(u)].value == result) sources |= 1ULL << u;
  }
  for (const Config& c : set_.configs) {
    const std::span<const Seen> from = set_.entries(c);
    if (responds(set_, c, slot, ri, result)) {
      keep(c, from, slot, ri);
      continue;
    }
    // Linearize the write the response needs (see the class comment).
    for (std::uint64_t needed = read ? sources & ~c.lin : 1ULL << slot;
         needed != 0; needed &= needed - 1) {
      const int u = std::countr_zero(needed);
      const Value value = ops_[static_cast<std::size_t>(u)].value;
      // Now: the value changes and every open read sees it.  Or just
      // before the last write, if invoked before it: the reads open then.
      const bool before_last =
          (c.place.pre >> u & 1) != 0 && !(read && c.place.seen_last <= ri);
      for (const bool before : {false, true}) {
        if (before && !before_last) break;
        Config d = c;
        d.lin |= 1ULL << u;
        d.place.pre &= ~(1ULL << u);
        if (!before) {
          d.value = value;
          d.place = {writes_ & ~d.lin, static_cast<std::uint32_t>(reads_.size())};
        }
        scratch_.assign(from.begin(), from.end());
        see(scratch_, value, d.place.seen_last);
        keep(d, scratch_, slot, ri);
      }
    }
  }
  finish(slot, ri);
}

std::span<const Value> Frontier::read_values(int id) {
  const std::uint32_t ri = read_index(slot_of(id));
  values_.clear();
  for (const Config& c : set_.configs) {
    for (const Seen& e : set_.entries(c)) {
      if (e.reads > ri) values_.push_back(e.value);
    }
    // An open write linearized now joins every open read's set.
    for (std::uint64_t w = writes_ & ~c.lin; w != 0; w &= w - 1) {
      values_.push_back(ops_[static_cast<std::size_t>(std::countr_zero(w))].value);
    }
  }
  std::sort(values_.begin(), values_.end());
  values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
  return values_;
}

std::int32_t WslFrontier::child(std::int32_t node, int slot, bool create) {
  if (node < 0) return -1;
  for (std::int32_t k = trie_[static_cast<std::size_t>(node)].first_child;
       k >= 0; k = trie_[static_cast<std::size_t>(k)].next_sibling) {
    if (trie_[static_cast<std::size_t>(k)].slot == slot) return k;
  }
  if (!create) return -1;
  const auto k = static_cast<std::int32_t>(trie_.size());
  trie_.push_back(
      Node{slot, -1, trie_[static_cast<std::size_t>(node)].first_child});
  trie_[static_cast<std::size_t>(node)].first_child = k;
  return k;
}

const WslFrontier::Set& WslFrontier::closure() {
  if (closed_at_ == events_) return closed_;
  closed_at_ = events_;
  trie_.assign(1, Node{});
  next_ = set_;
  for (std::size_t k = 0; k < next_.configs.size(); ++k) {
    const Config c = next_.configs[k];
    // Committed writes in order, then any uncommitted one.
    const auto done = static_cast<std::size_t>(std::popcount(c.lin & committed_));
    for (std::uint64_t next = done < order_.size() ? 1ULL << order_[done]
                                                   : writes_ & ~committed_ & ~c.lin;
         next != 0; next &= next - 1) {
      const int slot = std::countr_zero(next);
      const Value value = ops_[static_cast<std::size_t>(slot)].value;
      const std::span<const Seen> from = next_.entries(c);
      scratch_.assign(from.begin(), from.end());
      see(scratch_, value, static_cast<std::uint32_t>(reads_.size()));
      Config d{.value = value, .lin = c.lin | 1ULL << slot, .place = c.place};
      if ((committed_ >> slot & 1) == 0) {
        d.place.gone = child(c.place.gone, slot, /*create=*/true);
      }
      add(next_, d, scratch_);
    }
  }
  normalize(next_, closed_);
  return closed_;
}

void WslFrontier::respond(int id, Value result, std::span<const int> batch) {
  const int slot = slot_of(id);
  const std::uint64_t bit = 1ULL << slot;
  const bool read = !is_write(id);
  const std::uint32_t ri = read ? read_index(slot) : 0;
  const Set& from = closure();
  // The gone sequences that prefix the batch: the trie nodes on its path.
  node_.assign(1, 0);
  for (const int w : batch) {
    const std::int32_t next = child(node_.back(), slot_of(w), false);
    if (next < 0) break;
    node_.push_back(next);
  }
  for (const Config& c : from.configs) {
    if (responds(from, c, slot, ri, result) &&
        std::ranges::find(node_, c.place.gone) != node_.end()) {
      keep(c, from.entries(c), slot, ri);
    }
  }
  // Commit the batch, then drop the op.
  for (const int w : batch) {
    const int s = slot_of(w);
    RLT_CHECK_MSG((writes_ & ~committed_) >> s & 1,
                  "op " << w << " is not an uncommitted open write");
    committed_ |= 1ULL << s;
    order_.push_back(s);
  }
  if (!read) {
    RLT_CHECK_MSG((committed_ & bit) != 0, "write " << id
                                              << " responds uncommitted");
    order_.erase(std::find(order_.begin(), order_.end(), slot));
    committed_ &= ~bit;
  }
  finish(slot, ri);
}

std::span<const WslFrontier::Commitment> WslFrontier::commitments(int id) {
  const int slot = slot_of(id);
  const Op o = op(id);
  const bool read = o.kind == OpKind::kRead;
  const Set& cl = closure();
  choices_.clear();
  batches_.clear();
  if (!read && (committed_ >> slot & 1) != 0) {
    // A read committed it earlier; responding decides nothing more.
    choices_.push_back(Commitment{o.value, 0, 0});
    return choices_;
  }
  // A batch offers what the configurations whose gone sequence prefixes
  // it offer: the values the read has seen, or the write's value where it
  // has gone (so the batch holds it).
  const std::uint32_t ri = read ? read_index(slot) : 0;
  candidates_.clear();
  for (std::uint64_t w = writes_ & ~committed_; w != 0; w &= w - 1) {
    candidates_.push_back(ops_[static_cast<std::size_t>(std::countr_zero(w))].id);
  }
  std::sort(candidates_.begin(), candidates_.end());
  node_.assign(candidates_.size() + 1, 0);  // by depth: the batch's trie path
  const auto visit = [&](const std::vector<int>& batch) {
    const std::size_t d = batch.size();
    if (d > 0) {  // the enumeration visits a batch right after its prefixes
      node_[d] = child(node_[d - 1], slot_of(batch.back()), /*create=*/false);
    }
    const auto path = std::span(node_).first(d + 1);
    values_.clear();
    for (const Config& c : cl.configs) {
      if (std::ranges::find(path, c.place.gone) == path.end()) continue;
      if (!read && (c.lin >> slot & 1) != 0) values_.push_back(o.value);
      for (const Seen& e : cl.entries(c)) {
        if (read && e.reads > ri) values_.push_back(e.value);
      }
    }
    std::sort(values_.begin(), values_.end());
    values_.erase(std::unique(values_.begin(), values_.end()), values_.end());
    const auto first = static_cast<std::uint32_t>(batches_.size());
    if (!values_.empty()) batches_.insert(batches_.end(), batch.begin(), batch.end());
    for (const Value v : values_) {
      choices_.push_back(Commitment{v, first, static_cast<std::uint32_t>(d)});
    }
    return false;
  };
  visit({});  // a write offers nothing without a batch
  detail::for_each_ordered_selection(candidates_, visit);
  return choices_;
}

}  // namespace rlt::checker
