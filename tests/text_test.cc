// Tests for the text module: vocab, tokenizer, similarity measures.

#include <algorithm>
#include <initializer_list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "text/similarity.h"
#include "text/tokenizer.h"
#include "text/vocab.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace rpt {
namespace {

// ---- Tokenizer ---------------------------------------------------------------

TEST(TokenizerTest, LowercasesAndSplitsPunctuation) {
  EXPECT_EQ(Tokenizer::Tokenize("Apple Inc."),
            (std::vector<std::string>{"apple", "inc", "."}));
  EXPECT_EQ(Tokenizer::Tokenize("5.8-inch"),
            (std::vector<std::string>{"5.8", "-", "inch"}));
}

TEST(TokenizerTest, KeepsDecimalNumbersIntact) {
  EXPECT_EQ(Tokenizer::Tokenize("$9.99"),
            (std::vector<std::string>{"$", "9.99"}));
}

TEST(TokenizerTest, EmptyAndWhitespace) {
  EXPECT_TRUE(Tokenizer::Tokenize("").empty());
  EXPECT_TRUE(Tokenizer::Tokenize("   ").empty());
}

TEST(TokenizerTest, Normalize) {
  EXPECT_EQ(Tokenizer::Normalize("  Apple\t X  "), "apple x");
}

TEST(TokenizerTest, CountTokens) {
  std::unordered_map<std::string, int64_t> counts;
  Tokenizer::CountTokens("a b a", &counts);
  EXPECT_EQ(counts["a"], 2);
  EXPECT_EQ(counts["b"], 1);
}

// ---- Vocab --------------------------------------------------------------------

TEST(VocabTest, SpecialTokensHaveFixedIds) {
  Vocab v;
  EXPECT_EQ(v.Id("[PAD]"), SpecialTokens::kPad);
  EXPECT_EQ(v.Id("[M]"), SpecialTokens::kMask);
  EXPECT_EQ(v.Id("[A]"), SpecialTokens::kAttr);
  EXPECT_EQ(v.Id("[V]"), SpecialTokens::kValue);
  EXPECT_EQ(v.Id("[CLS]"), SpecialTokens::kCls);
  EXPECT_EQ(v.Id("[SEP]"), SpecialTokens::kSep);
}

TEST(VocabTest, BuildOrdersByFrequencyThenLex) {
  std::unordered_map<std::string, int64_t> counts = {
      {"zeta", 5}, {"alpha", 5}, {"beta", 10}};
  Vocab v = Vocab::Build(counts);
  // beta (freq 10) must get a smaller id than alpha/zeta; alpha < zeta.
  EXPECT_LT(v.Id("beta"), v.Id("alpha"));
  EXPECT_LT(v.Id("alpha"), v.Id("zeta"));
}

TEST(VocabTest, MinFreqFilters) {
  std::unordered_map<std::string, int64_t> counts = {{"rare", 1},
                                                     {"common", 3}};
  Vocab v = Vocab::Build(counts, /*min_freq=*/2);
  EXPECT_TRUE(v.Contains("common"));
  EXPECT_FALSE(v.Contains("rare"));
}

TEST(VocabTest, CharFallbackRoundTrip) {
  Vocab v;  // no words at all
  auto ids = v.EncodeWord("xyz");
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(v.Decode(ids), "xyz");
}

TEST(VocabTest, KnownWordEncodesAsSingleId) {
  Vocab v = Vocab::Build({{"apple", 2}});
  auto ids = v.EncodeWord("apple");
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(v.Token(ids[0]), "apple");
}

TEST(VocabTest, DecodeJoinsWordsWithSpaces) {
  Vocab v = Vocab::Build({{"apple", 2}, {"inc", 2}});
  std::vector<int32_t> ids;
  for (int32_t id : v.EncodeWord("apple")) ids.push_back(id);
  for (int32_t id : v.EncodeWord("inc")) ids.push_back(id);
  EXPECT_EQ(v.Decode(ids), "apple inc");
}

TEST(VocabTest, DecodeMixedKnownAndFallback) {
  Vocab v = Vocab::Build({{"iphone", 2}});
  std::vector<int32_t> ids;
  for (int32_t id : v.EncodeWord("iphone")) ids.push_back(id);
  for (int32_t id : v.EncodeWord("xs")) ids.push_back(id);
  EXPECT_EQ(v.Decode(ids), "iphone xs");
}

TEST(VocabTest, SaveLoadRoundTrip) {
  Vocab v = Vocab::Build({{"apple", 5}, {"google", 3}});
  BinaryWriter w;
  v.Save(&w);
  BinaryReader r(w.bytes());
  auto loaded = Vocab::Load(&r);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), v.size());
  EXPECT_EQ(loaded->Id("apple"), v.Id("apple"));
  EXPECT_EQ(loaded->Id("google"), v.Id("google"));
}

TEST(VocabTest, EncodeFullText) {
  Vocab v = Vocab::Build({{"apple", 5}});
  auto ids = Tokenizer::Encode("Apple iPhone", v);
  // "apple" known (1 id), "iphone" falls back to 6 char ids.
  EXPECT_EQ(ids.size(), 7u);
  EXPECT_EQ(v.Decode(ids), "apple iphone");
}

// ---- Similarity ------------------------------------------------------------------

TEST(SimilarityTest, LevenshteinBasics) {
  EXPECT_EQ(LevenshteinDistance("", ""), 0);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", "abc"), 0);
}

// Full (n+1) x (m+1) matrix edit distance: the textbook recurrence the
// one-row implementation must reproduce.
int64_t FullMatrixLevenshtein(const std::string& a, const std::string& b) {
  std::vector<std::vector<int64_t>> d(a.size() + 1,
                                      std::vector<int64_t>(b.size() + 1));
  for (size_t i = 0; i <= a.size(); ++i) d[i][0] = static_cast<int64_t>(i);
  for (size_t j = 0; j <= b.size(); ++j) d[0][j] = static_cast<int64_t>(j);
  for (size_t i = 1; i <= a.size(); ++i) {
    for (size_t j = 1; j <= b.size(); ++j) {
      const int64_t cost = a[i - 1] == b[j - 1] ? 0 : 1;
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + cost});
    }
  }
  return d[a.size()][b.size()];
}

TEST(SimilarityTest, LevenshteinMatchesFullMatrixReference) {
  // A 3-letter alphabet makes matches and near-matches common.
  Rng rng(2024);
  const auto random_string = [&rng](int64_t max_len) {
    std::string s(static_cast<size_t>(rng.UniformRange(0, max_len)), 'a');
    for (char& c : s) c = static_cast<char>('a' + rng.UniformInt(3));
    return s;
  };
  std::vector<std::string> fixed = {"", "a", "b", "ab", "ba"};
  for (const auto& a : fixed) {
    for (const auto& b : fixed) {
      EXPECT_EQ(LevenshteinDistance(a, b), FullMatrixLevenshtein(a, b))
          << "'" << a << "' vs '" << b << "'";
    }
  }
  for (int trial = 0; trial < 500; ++trial) {
    const std::string a = random_string(trial % 2 == 0 ? 1 : 24);
    const std::string b = random_string(24);
    ASSERT_EQ(LevenshteinDistance(a, b), FullMatrixLevenshtein(a, b))
        << "'" << a << "' vs '" << b << "'";
  }
}

TEST(SimilarityTest, LevenshteinSimilarityRange) {
  EXPECT_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  double s = LevenshteinSimilarity("iphone 10", "iphone 11");
  EXPECT_GT(s, 0.8);
  EXPECT_LT(s, 1.0);
}

TEST(SimilarityTest, TokenJaccard) {
  EXPECT_EQ(TokenJaccard("", ""), 1.0);
  EXPECT_EQ(TokenJaccard("apple inc", "apple inc"), 1.0);
  EXPECT_NEAR(TokenJaccard("apple inc", "apple"), 0.5, 1e-9);
  EXPECT_EQ(TokenJaccard("apple", "google"), 0.0);
}

TEST(SimilarityTest, QGramJaccardToleratesTypos) {
  double same = QGramJaccard("iphone", "iphone");
  double typo = QGramJaccard("iphone", "ipohne");
  double diff = QGramJaccard("iphone", "galaxy");
  EXPECT_EQ(same, 1.0);
  EXPECT_GT(typo, diff);
}

TEST(SimilarityTest, TokenContainment) {
  EXPECT_EQ(TokenContainment("apple", "apple inc 2020"), 1.0);
  EXPECT_EQ(TokenContainment("apple x", "apple inc"), 0.5);
}

TEST(SimilarityTest, TokenCosine) {
  EXPECT_NEAR(TokenCosine("a b", "a b"), 1.0, 1e-9);
  EXPECT_EQ(TokenCosine("a", "b"), 0.0);
  EXPECT_EQ(TokenCosine("", ""), 1.0);
  EXPECT_EQ(TokenCosine("a", ""), 0.0);
}

TEST(SimilarityTest, MongeElkanHandlesWordTypos) {
  double sim = MongeElkan("apple iphone", "aple iphone");
  EXPECT_GT(sim, 0.85);
}

TEST(SimilarityTest, NumericSimilarity) {
  EXPECT_EQ(NumericSimilarity(0, 0), 1.0);
  EXPECT_EQ(NumericSimilarity(10, 10), 1.0);
  EXPECT_NEAR(NumericSimilarity(9, 10), 0.9, 1e-9);
  EXPECT_EQ(NumericSimilarity(0, 10), 0.0);
}

// Property sweep: similarity functions are symmetric and bounded.
class SimilaritySymmetryTest
    : public ::testing::TestWithParam<std::pair<const char*, const char*>> {};

TEST_P(SimilaritySymmetryTest, SymmetricAndBounded) {
  auto [a, b] = GetParam();
  using Measure = double (*)(std::string_view, std::string_view);
  for (Measure fn : std::initializer_list<Measure>{
           TokenJaccard, TokenCosine, TokenContainment}) {
    double ab = fn(a, b);
    double ba = fn(b, a);
    EXPECT_DOUBLE_EQ(ab, ba);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
  }
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity(a, b), LevenshteinSimilarity(b, a));
  EXPECT_DOUBLE_EQ(QGramJaccard(a, b), QGramJaccard(b, a));
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SimilaritySymmetryTest,
    ::testing::Values(std::make_pair("iphone 10", "iphone x"),
                      std::make_pair("", "nonempty"),
                      std::make_pair("apple inc", "aapl"),
                      std::make_pair("5.8 inches", "5.8-inch"),
                      std::make_pair("a", "a")));

}  // namespace
}  // namespace rpt
