// Unit + property tests for the Aho-Corasick automaton.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "dhl/common/rng.hpp"
#include "dhl/match/aho_corasick.hpp"

namespace dhl::match {
namespace {

std::span<const std::uint8_t> bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

std::vector<PatternMatch> find(const AhoCorasick& ac, const std::string& text) {
  std::vector<PatternMatch> out;
  ac.find_all(bytes(text), out);
  return out;
}

TEST(AhoCorasick, ClassicExample) {
  const std::vector<std::string> patterns{"he", "she", "his", "hers"};
  const auto ac = AhoCorasick::build(patterns);
  const auto hits = find(ac, "ushers");
  // "ushers": she@4, he@4, hers@6.
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].pattern, 1u);  // she
  EXPECT_EQ(hits[0].end_offset, 4u);
  EXPECT_EQ(hits[1].pattern, 0u);  // he
  EXPECT_EQ(hits[1].end_offset, 4u);
  EXPECT_EQ(hits[2].pattern, 3u);  // hers
  EXPECT_EQ(hits[2].end_offset, 6u);
}

TEST(AhoCorasick, OverlappingAndNestedPatterns) {
  const std::vector<std::string> patterns{"aa", "aaa"};
  const auto ac = AhoCorasick::build(patterns);
  const auto hits = find(ac, "aaaa");
  // aa@2, aa@3+aaa@3, aa@4+aaa@4 -> 5 hits.
  EXPECT_EQ(hits.size(), 5u);
}

TEST(AhoCorasick, NoMatch) {
  const auto ac = AhoCorasick::build(std::vector<std::string>{"needle"});
  EXPECT_TRUE(find(ac, "haystack without it").empty());
  EXPECT_FALSE(ac.contains_any(bytes("haystack")));
}

TEST(AhoCorasick, ContainsAnyEarlyExit) {
  const auto ac = AhoCorasick::build(std::vector<std::string>{"x"});
  EXPECT_TRUE(ac.contains_any(bytes("aaaax")));
  EXPECT_TRUE(ac.contains_any(bytes("xaaaa")));
}

TEST(AhoCorasick, CaseInsensitive) {
  const auto ac = AhoCorasick::build(std::vector<std::string>{"Attack"},
                                     /*case_insensitive=*/true);
  EXPECT_TRUE(ac.contains_any(bytes("ATTACK")));
  EXPECT_TRUE(ac.contains_any(bytes("attack")));
  EXPECT_TRUE(ac.contains_any(bytes("aTtAcK")));
  const auto ac_cs = AhoCorasick::build(std::vector<std::string>{"Attack"});
  EXPECT_FALSE(ac_cs.contains_any(bytes("ATTACK")));
  EXPECT_TRUE(ac_cs.contains_any(bytes("Attack")));
}

TEST(AhoCorasick, BinaryPatterns) {
  const std::string nops("\x90\x90\x90\x90", 4);
  const auto ac = AhoCorasick::build(std::vector<std::string>{nops});
  const std::string hay = std::string("ab") + nops + "cd";
  EXPECT_TRUE(ac.contains_any(bytes(hay)));
}

TEST(AhoCorasick, CountDistinct) {
  const std::vector<std::string> patterns{"ab", "bc", "zz"};
  const auto ac = AhoCorasick::build(patterns);
  EXPECT_EQ(ac.count_distinct(bytes("abcabc")), 2u);  // ab, bc (each once)
  EXPECT_EQ(ac.count_distinct(bytes("zzz")), 1u);
  EXPECT_EQ(ac.count_distinct(bytes("qqq")), 0u);
}

TEST(AhoCorasick, RejectsEmptyPattern) {
  EXPECT_THROW(AhoCorasick::build(std::vector<std::string>{""}),
               std::logic_error);
}

TEST(AhoCorasick, DfaStepMatchesOutputs) {
  const std::vector<std::string> patterns{"abc"};
  const auto ac = AhoCorasick::build(patterns);
  std::uint32_t s = 0;
  s = ac.step(s, 'a');
  EXPECT_TRUE(ac.outputs(s).empty());
  s = ac.step(s, 'b');
  s = ac.step(s, 'c');
  ASSERT_EQ(ac.outputs(s).size(), 1u);
  EXPECT_EQ(ac.outputs(s)[0], 0u);
  // Failure transition: 'a' restarts the pattern.
  s = ac.step(s, 'a');
  s = ac.step(s, 'b');
  s = ac.step(s, 'c');
  EXPECT_EQ(ac.outputs(s).size(), 1u);
}

TEST(AhoCorasick, AcceptingStatesNumberedLast) {
  // has_output() is one compare because build() numbers every accepting
  // state after every non-accepting one; the scans start at root, id 0.
  Xoshiro256 rng{0xACCE97ull};
  std::vector<std::string> patterns{"he", "she", "his", "hers"};
  for (int i = 0; i < 40; ++i) {
    std::string p;
    const std::size_t len = 1 + rng.bounded(8);
    for (std::size_t j = 0; j < len; ++j) {
      p.push_back(static_cast<char>('a' + rng.bounded(5)));
    }
    patterns.push_back(std::move(p));
  }
  for (const bool compact : {true, false}) {
    const auto ac = AhoCorasick::build(patterns, /*case_insensitive=*/false,
                                       compact);
    std::size_t first_accepting = ac.state_count();
    std::size_t last_plain = 0;
    for (std::uint32_t s = 0; s < ac.state_count(); ++s) {
      const bool accepts = !ac.outputs(s).empty();
      EXPECT_EQ(ac.has_output(s), accepts) << "state " << s;
      if (accepts) {
        first_accepting = std::min<std::size_t>(first_accepting, s);
      } else {
        last_plain = s;
      }
    }
    EXPECT_LT(last_plain, first_accepting);
    EXPECT_LT(first_accepting, ac.state_count());
    // Root is 0: it accepts nothing, a byte no pattern holds returns to it,
    // and "he" read from 0 accepts pattern 0.
    EXPECT_FALSE(ac.has_output(0));
    EXPECT_EQ(ac.step(ac.step(0, 'h'), 'z'), 0u);
    const std::uint32_t he = ac.step(ac.step(0, 'h'), 'e');
    ASSERT_TRUE(ac.has_output(he));
    EXPECT_EQ(ac.outputs(he)[0], 0u);
  }
}

TEST(AhoCorasick, WideTableMatchesCompact) {
  // compact_table=false forces the uint32 dense table (the layout automata
  // with >65536 states get) without building such a monster; both layouts
  // must scan identically.
  const std::vector<std::string> patterns{"he", "she", "his", "hers"};
  const auto compact = AhoCorasick::build(patterns, false, true);
  const auto wide = AhoCorasick::build(patterns, false, false);
  EXPECT_TRUE(compact.compact_table());
  EXPECT_FALSE(wide.compact_table());
  EXPECT_EQ(compact.state_count(), wide.state_count());
  const std::string text = "she sells his sushi to ushers";
  std::vector<PatternMatch> a, b;
  compact.find_all(bytes(text), a);
  wide.find_all(bytes(text), b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pattern, b[i].pattern);
    EXPECT_EQ(a[i].end_offset, b[i].end_offset);
  }
}

TEST(AhoCorasick, BuildTimeStaysInBudget) {
  // Regression guard for the trie construction cost: with std::map edges
  // a 2000-pattern build took noticeably longer than the sorted-vector
  // trie does now.  The ceiling is deliberately loose (shared CI boxes,
  // Debug builds) -- it exists to catch an accidental return to per-edge
  // tree allocations, which costs an order of magnitude, not percents.
  Xoshiro256 rng{0xB111DD};
  std::vector<std::string> patterns;
  for (int i = 0; i < 2000; ++i) {
    const std::size_t len = 4 + rng.bounded(28);
    std::string p;
    for (std::size_t j = 0; j < len; ++j) {
      p.push_back(static_cast<char>('a' + rng.bounded(26)));
    }
    patterns.push_back(std::move(p));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto ac = AhoCorasick::build(patterns, /*case_insensitive=*/true);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GT(ac.state_count(), 2000u);
  EXPECT_LT(elapsed.count(), 5000) << "AC build took " << elapsed.count()
                                   << " ms for 2000 patterns";
}

// --- property: agrees with naive substring search -----------------------------

struct Scenario {
  std::uint64_t seed;
  int alphabet;  // small alphabets force heavy fail-link use
};

class AcProperty : public ::testing::TestWithParam<Scenario> {};

TEST_P(AcProperty, AgreesWithNaiveSearch) {
  const auto param = GetParam();
  Xoshiro256 rng{param.seed};

  // Random patterns over a small alphabet.
  std::vector<std::string> patterns;
  for (int i = 0; i < 12; ++i) {
    const std::size_t len = 1 + rng.bounded(6);
    std::string p;
    for (std::size_t j = 0; j < len; ++j) {
      p.push_back(static_cast<char>('a' + rng.bounded(
                                              static_cast<std::uint64_t>(
                                                  param.alphabet))));
    }
    patterns.push_back(p);
  }
  const auto ac = AhoCorasick::build(patterns);

  for (int round = 0; round < 50; ++round) {
    std::string text;
    const std::size_t len = rng.bounded(400);
    for (std::size_t j = 0; j < len; ++j) {
      text.push_back(static_cast<char>('a' + rng.bounded(
                                                static_cast<std::uint64_t>(
                                                    param.alphabet))));
    }
    // Naive: count every (pattern, end) occurrence.
    std::size_t naive = 0;
    for (const auto& p : patterns) {
      for (std::size_t pos = 0; pos + p.size() <= text.size(); ++pos) {
        if (text.compare(pos, p.size(), p) == 0) ++naive;
      }
    }
    std::vector<PatternMatch> hits;
    ac.find_all(bytes(text), hits);
    ASSERT_EQ(hits.size(), naive) << "seed=" << param.seed << " round=" << round;
    // Every reported hit must actually be there.
    for (const auto& h : hits) {
      const std::string& p = patterns[h.pattern];
      ASSERT_GE(h.end_offset, p.size());
      ASSERT_EQ(text.compare(h.end_offset - p.size(), p.size(), p), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, AcProperty,
    ::testing::Values(Scenario{101, 2}, Scenario{202, 2}, Scenario{303, 3},
                      Scenario{404, 4}, Scenario{505, 26}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      return "seed" + std::to_string(info.param.seed) + "_a" +
             std::to_string(info.param.alphabet);
    });

}  // namespace
}  // namespace dhl::match
