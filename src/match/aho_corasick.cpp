#include "dhl/match/aho_corasick.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <deque>

#include "dhl/common/check.hpp"
#include "dhl/common/simd.hpp"

namespace dhl::match {

namespace {

/// Trie node with sorted-vector edges.  A std::map here costs one red-black
/// allocation per edge; large rulesets (thousands of patterns) spend build
/// time in the allocator instead of the trie.  Fan-out is <= 256, so a
/// sorted vector's binary search + positional insert is both smaller and
/// faster, and iterating it preserves the byte-sorted order the BFS and
/// dense-table passes relied on with std::map.
struct TrieNode {
  std::vector<std::pair<std::uint8_t, std::uint32_t>> next;  // sorted by byte
  std::vector<std::uint32_t> out;
  std::uint32_t fail = 0;
};

std::uint32_t* edge_find(TrieNode& node, std::uint8_t b) {
  auto it = std::lower_bound(
      node.next.begin(), node.next.end(), b,
      [](const auto& e, std::uint8_t key) { return e.first < key; });
  if (it == node.next.end() || it->first != b) return nullptr;
  return &it->second;
}

void edge_insert(TrieNode& node, std::uint8_t b, std::uint32_t to) {
  auto it = std::lower_bound(
      node.next.begin(), node.next.end(), b,
      [](const auto& e, std::uint8_t key) { return e.first < key; });
  node.next.insert(it, {b, to});
}

}  // namespace

AhoCorasick AhoCorasick::build(std::span<const std::string> patterns,
                               bool case_insensitive, bool compact_table) {
  AhoCorasick ac;
  ac.case_insensitive_ = case_insensitive;
  for (int i = 0; i < 256; ++i) {
    ac.fold_[i] = case_insensitive
                      ? static_cast<std::uint8_t>(
                            std::tolower(static_cast<unsigned char>(i)))
                      : static_cast<std::uint8_t>(i);
  }

  std::vector<TrieNode> trie(1);

  for (std::size_t p = 0; p < patterns.size(); ++p) {
    const std::string& pat = patterns[p];
    DHL_CHECK_MSG(!pat.empty(), "empty pattern");
    std::uint32_t state = 0;
    for (char ch : pat) {
      const std::uint8_t b = ac.fold_[static_cast<std::uint8_t>(ch)];
      const std::uint32_t* edge = edge_find(trie[state], b);
      if (edge == nullptr) {
        const auto fresh = static_cast<std::uint32_t>(trie.size());
        trie.push_back({});
        edge_insert(trie[state], b, fresh);
        state = fresh;
      } else {
        state = *edge;
      }
    }
    trie[state].out.push_back(static_cast<std::uint32_t>(p));
    ac.longest_ = std::max(ac.longest_, pat.size());
  }
  ac.pattern_count_ = patterns.size();

  // BFS failure links + output merging.
  std::deque<std::uint32_t> queue;
  for (const auto& [b, s] : trie[0].next) {
    (void)b;
    trie[s].fail = 0;
    queue.push_back(s);
  }
  while (!queue.empty()) {
    const std::uint32_t u = queue.front();
    queue.pop_front();
    for (const auto& [b, v] : trie[u].next) {
      // Follow fails until a state with an edge on b (or root).
      std::uint32_t f = trie[u].fail;
      while (f != 0 && edge_find(trie[f], b) == nullptr) f = trie[f].fail;
      const std::uint32_t* it = edge_find(trie[f], b);
      trie[v].fail = (it != nullptr && *it != v) ? *it : 0;
      const auto& fo = trie[trie[v].fail].out;
      trie[v].out.insert(trie[v].out.end(), fo.begin(), fo.end());
      queue.push_back(v);
    }
  }

  // Number the states non-accepting first, accepting last, so the scans
  // test acceptance with one compare (has_output).  Root accepts nothing
  // (empty patterns are rejected) and keeps id 0, the scans' start state.
  const std::size_t n = trie.size();
  std::vector<std::uint32_t> id(n);
  std::uint32_t next_id = 0;
  for (std::size_t s = 0; s < n; ++s) {
    if (trie[s].out.empty()) id[s] = next_id++;
  }
  ac.first_accept_ = next_id;
  for (std::size_t s = 0; s < n; ++s) {
    if (!trie[s].out.empty()) id[s] = next_id++;
  }
  DHL_CHECK(id[0] == 0);

  // Dense DFA: delta(s, b) = goto(s, b) if present else delta(fail(s), b).
  ac.dfa_.assign(n * 256, 0);
  // BFS order guarantees delta(fail(s), .) is already filled.
  std::vector<std::uint32_t> order;
  order.reserve(n);
  order.push_back(0);
  for (std::size_t qi = 0; qi < order.size(); ++qi) {
    const std::uint32_t u = order[qi];
    for (const auto& [b, v] : trie[u].next) {
      (void)b;
      order.push_back(v);
    }
  }
  DHL_CHECK(order.size() == n);
  for (const std::uint32_t s : order) {
    const TrieNode& node = trie[s];
    // The sorted edge list partitions the folded byte space: folded bytes
    // with a goto edge take it, everything between two edges inherits from
    // the fail state (root rows inherit 0).  One merge pass instead of 256
    // binary searches.  Rows are built over *folded* bytes first; the case
    // fold is then baked into the raw-byte columns below so the scan loops
    // never touch fold_ -- one dependent load per byte instead of two.
    std::uint32_t* row = &ac.dfa_[static_cast<std::size_t>(id[s]) * 256];
    const std::uint32_t* inherit =
        s == 0 ? nullptr
               : &ac.dfa_[static_cast<std::size_t>(id[node.fail]) * 256];
    std::size_t e = 0;
    for (int b = 0; b < 256; ++b) {
      if (e < node.next.size() && node.next[e].first == b) {
        row[b] = id[node.next[e].second];
        ++e;
      } else {
        row[b] = inherit == nullptr ? 0 : inherit[b];
      }
    }
  }
  if (case_insensitive) {
    // Bake the fold in: delta(s, B) = delta(s, fold(B)).  Upper-case
    // columns are copies of their lower-case ones, so this costs no space
    // (the table is 256 wide regardless) and removes the per-byte fold
    // lookup from every scan.  Inherit rows above already read folded
    // columns, which the fold leaves fixed, so ordering is safe.
    for (std::size_t s = 0; s < n; ++s) {
      for (int b = 0; b < 256; ++b) {
        const std::uint8_t fb = ac.fold_[b];
        if (fb != b) ac.dfa_[s * 256 + b] = ac.dfa_[s * 256 + fb];
      }
    }
  }

  // Flatten outputs.
  ac.output_range_.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    ac.output_range_[id[s]] = {static_cast<std::uint32_t>(ac.outputs_.size()),
                               static_cast<std::uint32_t>(trie[s].out.size())};
    ac.outputs_.insert(ac.outputs_.end(), trie[s].out.begin(), trie[s].out.end());
  }

  // Narrow the table when every state id fits uint16: half the bytes means
  // the snort-scale automata stay L2-resident, which the dependent-load
  // scan loop feels directly.
  if (compact_table && n <= (std::size_t{1} << 16)) {
    ac.dfa16_.assign(ac.dfa_.begin(), ac.dfa_.end());
    ac.dfa_.clear();
    ac.dfa_.shrink_to_fit();
  }
  return ac;
}

std::size_t AhoCorasick::find_all(std::span<const std::uint8_t> text,
                                  std::vector<PatternMatch>& out) const {
  std::size_t found = 0;
  std::uint32_t state = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    state = step(state, text[i]);
    if (!has_output(state)) continue;
    for (const std::uint32_t p : outputs(state)) {
      out.push_back({p, i + 1});
      ++found;
    }
  }
  return found;
}

namespace {

/// Step N lanes through up to `len` bytes each, lane i reading from cur[i]
/// and walking state[i].  Stops one byte past the first step after which
/// some lane accepts (a state >= first_accept) and returns the bytes
/// consumed; the caller emits and resumes.  The loop makes no call, so gcc
/// keeps the N states in registers; a call here would spill them.
template <std::size_t N, typename Entry>
std::size_t scan_chunk(const Entry* table, std::uint32_t first_accept,
                       const std::uint8_t* const* cur, std::uint32_t* state,
                       std::size_t len) {
  std::uint32_t st[N];
  const std::uint8_t* p[N];
  for (std::size_t i = 0; i < N; ++i) {
    st[i] = state[i];
    p[i] = cur[i];
  }
  std::size_t k = 0;
  while (k < len) {
    std::uint32_t top = 0;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < N; ++i) {
      st[i] = table[static_cast<std::size_t>(st[i]) * 256 + p[i][k]];
      top = std::max(top, st[i]);
    }
    ++k;
    if (top >= first_accept) [[unlikely]] break;
  }
  for (std::size_t i = 0; i < N; ++i) state[i] = st[i];
  return k;
}

/// Restore end-offset order in `v`, the matches of one text whose pieces of
/// `piece` bytes ran side by side: each piece emitted its own matches in
/// order, interleaved with the other pieces'.  Insertion would cost a move
/// per out-of-order pair, ~m^2/4 for m dense matches; a stable counting
/// pass by piece through the vector's own tail is O(m).  The tail is spare
/// capacity that persists as the match lists themselves do, so a caller
/// that reuses `v` allocates nothing at steady state.
void restore_order(std::vector<PatternMatch>& v, std::size_t piece) {
  const auto by_end = [](const PatternMatch& a, const PatternMatch& b) {
    return a.end_offset < b.end_offset;
  };
  if (std::is_sorted(v.begin(), v.end(), by_end)) return;
  const std::size_t n = v.size();
  std::size_t at[AhoCorasick::kLanes] = {};
  for (const PatternMatch& m : v) ++at[(m.end_offset - 1) / piece];
  for (std::size_t j = 0, sum = n; j < AhoCorasick::kLanes; ++j) {
    const std::size_t count = at[j];
    at[j] = sum;
    sum += count;
  }
  v.resize(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    v[at[(v[i].end_offset - 1) / piece]++] = v[i];
  }
  std::copy(v.begin() + static_cast<std::ptrdiff_t>(n), v.end(), v.begin());
  v.resize(n);
}

}  // namespace

template <typename Entry>
std::size_t AhoCorasick::scan_lanes(
    const Entry* table, std::span<const std::span<const std::uint8_t>> texts,
    std::span<std::vector<PatternMatch>> out, std::size_t piece) const {
  // A lane runs one piece: the text bytes [from, own + piece) clipped to the
  // text, where from = own - overlap for every piece but a text's first.
  const std::size_t overlap = longest_ - 1;
  const std::uint8_t* cur[kLanes];  // next byte to read
  std::size_t off[kLanes];          // text offset of cur
  std::size_t own[kLanes];          // first offset this piece reports
  std::size_t left[kLanes];         // bytes still to read
  std::size_t idx[kLanes];          // text index
  std::uint32_t state[kLanes];
  std::size_t next_text = 0;
  std::size_t next_off = 0;
  std::size_t total = 0;

  const auto refill = [&](std::size_t lane) {
    while (next_text < texts.size()) {
      const auto t = texts[next_text];
      if (next_off == t.size()) {
        ++next_text;
        next_off = 0;
        continue;
      }
      // piece >= overlap, so a non-first piece never starts before byte 0.
      const std::size_t from = next_off == 0 ? 0 : next_off - overlap;
      const std::size_t end = std::min(t.size(), next_off + piece);
      cur[lane] = t.data() + from;
      off[lane] = from;
      own[lane] = next_off;
      left[lane] = end - from;
      idx[lane] = next_text;
      state[lane] = 0;
      next_off = end;
      return true;
    }
    return false;
  };
  // Record lane i's matches unless they end in its overlap: those belong to
  // the previous piece, which reports them.
  const auto emit = [&](std::size_t i) {
    if (off[i] <= own[i]) return;
    for (const std::uint32_t p : outputs(state[i])) {
      out[idx[i]].push_back({p, off[i]});
      ++total;
    }
  };

  std::size_t nl = 0;
  while (nl < kLanes && refill(nl)) ++nl;

  while (nl > 0) {
    // Run every live lane for the shortest remaining length: inside the
    // chunk there are no end-of-text branches, just nl independent
    // state->load->state chains the core can overlap.
    std::size_t chunk = left[0];
    for (std::size_t i = 1; i < nl; ++i) chunk = std::min(chunk, left[i]);
    for (std::size_t done = 0; done < chunk;) {
      const std::size_t len = chunk - done;
      const std::uint32_t fa = first_accept_;
      std::size_t k = 0;
      switch (nl) {
        case 1: k = scan_chunk<1>(table, fa, cur, state, len); break;
        case 2: k = scan_chunk<2>(table, fa, cur, state, len); break;
        case 3: k = scan_chunk<3>(table, fa, cur, state, len); break;
        case 4: k = scan_chunk<4>(table, fa, cur, state, len); break;
        case 5: k = scan_chunk<5>(table, fa, cur, state, len); break;
        case 6: k = scan_chunk<6>(table, fa, cur, state, len); break;
        case 7: k = scan_chunk<7>(table, fa, cur, state, len); break;
        default: k = scan_chunk<8>(table, fa, cur, state, len); break;
      }
      done += k;
      for (std::size_t i = 0; i < nl; ++i) {
        cur[i] += k;
        off[i] += k;
        if (has_output(state[i])) emit(i);
      }
    }

    // Retire exhausted lanes: refill from the pending pieces or compact.
    for (std::size_t i = 0; i < nl; ++i) left[i] -= chunk;
    for (std::size_t i = 0; i < nl;) {
      if (left[i] == 0 && !refill(i)) {
        --nl;
        cur[i] = cur[nl];
        off[i] = off[nl];
        own[i] = own[nl];
        left[i] = left[nl];
        idx[i] = idx[nl];
        state[i] = state[nl];
      } else {
        ++i;
      }
    }
  }

  for (std::size_t t = 0; t < texts.size(); ++t) {
    if (texts[t].size() > piece) restore_order(out[t], piece);
  }
  return total;
}

std::size_t AhoCorasick::find_all_multi(
    std::span<const std::span<const std::uint8_t>> texts,
    std::span<std::vector<PatternMatch>> out) const {
  DHL_CHECK(out.size() >= texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) out[i].clear();
  // Kernel "ac_multilane" (simd::kernel_report): no vector instructions,
  // but the lane interleave is the same scalar-vs-fast contract, so it sits
  // behind the sse42 tier -- DHL_SIMD=scalar forces the reference loop.
  if (!common::simd::enabled(common::simd::Isa::kSse42)) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < texts.size(); ++i) {
      total += find_all(texts[i], out[i]);
    }
    return total;
  }
  if (pattern_count_ == 0) return 0;
  // Cut texts into pieces so the batch fills kLanes lanes.  A piece re-reads
  // (longest - 1) bytes of overlap; the 4x floor keeps that under a quarter
  // of its bytes, and the 64 B floor keeps short texts whole.
  std::size_t bytes = 0;
  for (const auto t : texts) bytes += t.size();
  const std::size_t piece = std::max({(bytes + kLanes - 1) / kLanes,
                                      4 * (longest_ - 1), std::size_t{64}});
  return dfa16_.empty() ? scan_lanes(dfa_.data(), texts, out, piece)
                        : scan_lanes(dfa16_.data(), texts, out, piece);
}

bool AhoCorasick::contains_any(std::span<const std::uint8_t> text) const {
  std::uint32_t state = 0;
  for (const std::uint8_t b : text) {
    state = step(state, b);
    if (has_output(state)) return true;
  }
  return false;
}

std::size_t AhoCorasick::count_distinct(std::span<const std::uint8_t> text) const {
  std::vector<bool> seen(pattern_count(), false);
  std::size_t distinct = 0;
  std::uint32_t state = 0;
  for (const std::uint8_t b : text) {
    state = step(state, b);
    if (!has_output(state)) continue;
    for (const std::uint32_t p : outputs(state)) {
      if (!seen[p]) {
        seen[p] = true;
        ++distinct;
      }
    }
  }
  return distinct;
}

}  // namespace dhl::match
