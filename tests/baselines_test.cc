// Tests for the baseline implementations: similarity features, ZeroER's EM
// mixture, the DeepMatcher MLP, and the Magellan random forest.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/deepmatcher.h"
#include "baselines/magellan.h"
#include "baselines/sim_features.h"
#include "baselines/zeroer.h"
#include "synth/benchmarks.h"
#include "synth/universe.h"
#include "text/similarity.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace rpt {
namespace {

TEST(SimFeaturesTest, FixedLengthAndBounded) {
  Schema sa({"title", "price"});
  Schema sb({"title", "price"});
  Tuple a = {Value::Parse("apple iphone 10"), Value::Parse("999.99")};
  Tuple b = {Value::Parse("iphone x by apple"), Value::Parse("989.95")};
  auto f = PairFeatures(sa, a, sb, b);
  ASSERT_EQ(static_cast<int64_t>(f.size()), kNumPairFeatures);
  ASSERT_EQ(PairFeatureNames().size(),
            static_cast<size_t>(kNumPairFeatures));
  for (double v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

TEST(SimFeaturesTest, IdenticalTuplesScoreHigh) {
  Schema s({"title", "price"});
  Tuple t = {Value::Parse("apple iphone 10"), Value::Parse("999.99")};
  auto f = PairFeatures(s, t, s, t);
  for (double v : f) EXPECT_GE(v, 0.99);
}

TEST(SimFeaturesTest, DisjointSchemasStillWork) {
  Schema sa({"title"});
  Schema sb({"name"});
  Tuple a = {Value::Parse("apple iphone")};
  Tuple b = {Value::Parse("apple iphone")};
  auto f = PairFeatures(sa, a, sb, b);
  ASSERT_EQ(static_cast<int64_t>(f.size()), kNumPairFeatures);
  EXPECT_GT(f[1], 0.9);  // whole-record token jaccard
}

TEST(SimFeaturesTest, ConcatSkipsNulls) {
  Tuple t = {Value::Parse("a"), Value::Null(), Value::Parse("b")};
  EXPECT_EQ(ConcatTuple(t), "a b");
}

// ---- PairFeatures against the composition it replaced ---------------------

// Test-local copy of the similarity measures as they stood before the text
// profiles (hash sets of token and trigram strings, a token count map per
// call, a two-row edit distance per word pair) and of the ten-call
// composition over them. PairFeatures must reproduce it bit for bit.
namespace reference {

int64_t Levenshtein(std::string_view a, std::string_view b) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int64_t>(m);
  if (m == 0) return static_cast<int64_t>(n);
  std::vector<int64_t> prev(m + 1), curr(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int64_t>(j);
  for (size_t i = 1; i <= n; ++i) {
    curr[0] = static_cast<int64_t>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int64_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      curr[j] = std::min({prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, curr);
  }
  return prev[m];
}

double LevenshteinSim(std::string_view a, std::string_view b) {
  const size_t mx = std::max(a.size(), b.size());
  if (mx == 0) return 1.0;
  return 1.0 - static_cast<double>(Levenshtein(a, b)) /
                   static_cast<double>(mx);
}

std::unordered_set<std::string> TokenSet(std::string_view text) {
  std::unordered_set<std::string> out;
  for (auto& t : Tokenizer::Tokenize(text)) out.insert(std::move(t));
  return out;
}

double JaccardOfSets(const std::unordered_set<std::string>& sa,
                     const std::unordered_set<std::string>& sb) {
  if (sa.empty() && sb.empty()) return 1.0;
  size_t inter = 0;
  const auto& small = sa.size() <= sb.size() ? sa : sb;
  const auto& large = sa.size() <= sb.size() ? sb : sa;
  for (const auto& t : small) {
    if (large.count(t)) ++inter;
  }
  const size_t uni = sa.size() + sb.size() - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

double TokenJaccard(std::string_view a, std::string_view b) {
  return JaccardOfSets(TokenSet(a), TokenSet(b));
}

double QGramJaccard(std::string_view a, std::string_view b) {
  const auto grams = [](std::string_view text) {
    std::unordered_set<std::string> out;
    const std::string padded = "##" + Tokenizer::Normalize(text) + "##";
    for (size_t i = 0; i + 3 <= padded.size(); ++i) {
      out.insert(padded.substr(i, 3));
    }
    return out;
  };
  return JaccardOfSets(grams(a), grams(b));
}

double TokenContainment(std::string_view a, std::string_view b) {
  auto sa = TokenSet(a);
  auto sb = TokenSet(b);
  if (sa.empty() && sb.empty()) return 1.0;
  const auto& small = sa.size() <= sb.size() ? sa : sb;
  const auto& large = sa.size() <= sb.size() ? sb : sa;
  if (small.empty()) return 0.0;
  size_t inter = 0;
  for (const auto& t : small) {
    if (large.count(t)) ++inter;
  }
  return static_cast<double>(inter) / small.size();
}

double TokenCosine(std::string_view a, std::string_view b) {
  std::unordered_map<std::string, int64_t> ca, cb;
  Tokenizer::CountTokens(a, &ca);
  Tokenizer::CountTokens(b, &cb);
  if (ca.empty() && cb.empty()) return 1.0;
  if (ca.empty() || cb.empty()) return 0.0;
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (const auto& [t, c] : ca) {
    na += static_cast<double>(c) * c;
    auto it = cb.find(t);
    if (it != cb.end()) dot += static_cast<double>(c) * it->second;
  }
  for (const auto& [t, c] : cb) nb += static_cast<double>(c) * c;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double MongeElkan(std::string_view a, std::string_view b) {
  auto ta = Tokenizer::Tokenize(a);
  auto tb = Tokenizer::Tokenize(b);
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  double total = 0.0;
  for (const auto& wa : ta) {
    double best = 0.0;
    for (const auto& wb : tb) best = std::max(best, LevenshteinSim(wa, wb));
    total += best;
  }
  return total / static_cast<double>(ta.size());
}

std::vector<double> PairFeatures(const Schema& schema_a, const Tuple& a,
                                 const Schema& schema_b, const Tuple& b) {
  const std::string ca = ConcatTuple(a);
  const std::string cb = ConcatTuple(b);
  std::vector<double> features;
  features.push_back(LevenshteinSim(ca, cb));
  features.push_back(TokenJaccard(ca, cb));
  features.push_back(QGramJaccard(ca, cb));
  features.push_back(TokenContainment(ca, cb));
  features.push_back(TokenCosine(ca, cb));
  features.push_back(0.5 * (MongeElkan(ca, cb) + MongeElkan(cb, ca)));
  double col_sim_sum = 0.0;
  double numeric_sim_sum = 0.0;
  double agreement_sum = 0.0;
  int64_t shared = 0;
  int64_t numeric_shared = 0;
  for (int64_t col_a = 0; col_a < schema_a.size(); ++col_a) {
    const int64_t col_b = schema_b.Index(schema_a.name(col_a));
    if (col_b < 0) continue;
    const Value& va = a[static_cast<size_t>(col_a)];
    const Value& vb = b[static_cast<size_t>(col_b)];
    if (va.is_null() || vb.is_null()) continue;
    ++shared;
    col_sim_sum += TokenJaccard(va.text(), vb.text());
    agreement_sum += Tokenizer::Normalize(va.text()) ==
                             Tokenizer::Normalize(vb.text())
                         ? 1.0
                         : 0.0;
    if (va.is_number() && vb.is_number()) {
      ++numeric_shared;
      numeric_sim_sum += NumericSimilarity(va.number(), vb.number());
    }
  }
  features.push_back(shared == 0 ? 0.5 : col_sim_sum / shared);
  features.push_back(numeric_shared == 0 ? 0.5
                                         : numeric_sim_sum / numeric_shared);
  features.push_back(shared == 0 ? 0.5 : agreement_sum / shared);
  const double la = static_cast<double>(ca.size());
  const double lb = static_cast<double>(cb.size());
  features.push_back(std::max(la, lb) == 0
                         ? 1.0
                         : std::min(la, lb) / std::max(la, lb));
  return features;
}

}  // namespace reference

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

void ExpectSameFeatureBits(const Schema& schema_a, const Tuple& a,
                           const Schema& schema_b, const Tuple& b) {
  const std::vector<double> got = PairFeatures(schema_a, a, schema_b, b);
  const std::vector<double> want =
      reference::PairFeatures(schema_a, a, schema_b, b);
  ASSERT_EQ(got.size(), want.size());
  for (size_t f = 0; f < got.size(); ++f) {
    ASSERT_EQ(Bits(got[f]), Bits(want[f]))
        << PairFeatureNames()[f] << ": " << got[f] << " vs " << want[f]
        << "\n  a: '" << ConcatTuple(a) << "'\n  b: '" << ConcatTuple(b)
        << "'";
  }
}

TEST(SimFeaturesTest, BitIdenticalToReferenceOnBenchmarkPairs) {
  ProductUniverse universe(120, 31);
  Rng rng(77);
  for (const BenchmarkSpec& spec : DefaultBenchmarkSuite(0.25)) {
    SCOPED_TRACE(spec.name);
    const ErBenchmark bench = GenerateErBenchmark(universe, spec);
    std::vector<LabeledPair> pairs = bench.pairs;
    const uint64_t na = static_cast<uint64_t>(bench.table_a.NumRows());
    const uint64_t nb = static_cast<uint64_t>(bench.table_b.NumRows());
    for (int i = 0; i < 100; ++i) {
      pairs.push_back({static_cast<int64_t>(rng.UniformInt(na)),
                       static_cast<int64_t>(rng.UniformInt(nb)), false});
    }
    for (const LabeledPair& pair : pairs) {
      ExpectSameFeatureBits(bench.table_a.schema(),
                            bench.table_a.row(pair.a),
                            bench.table_b.schema(),
                            bench.table_b.row(pair.b));
    }
  }
}

TEST(SimFeaturesTest, BitIdenticalToReferenceOnEdgeTuples) {
  std::string long_value;
  for (int i = 0; long_value.size() < 300; ++i) {
    long_value += "word" + std::to_string(i % 17) + (i % 5 == 0 ? "-x " : " ");
  }
  long_value.resize(300);
  const std::vector<std::string> texts = {
      "",
      "!!! ... --- ?",
      "apple apple apple iphone iphone apple",
      "5.8-inch 5.8 inch 9.99$ 1.2.3",
      "caf\xc3\xa9 na\xc3\xafve \xe2\x80\x94 \xff\xfe CAF\xc3\x89",
      "Apple iPhone 10",
      long_value,
  };
  const Schema schema_a({"title", "price"});
  const Schema schema_b({"name", "price"});
  std::vector<Tuple> tuples = {{Value::Null(), Value::Null()}};
  for (const std::string& text : texts) {
    tuples.push_back({Value::String(text), Value::Parse("5.8")});
    tuples.push_back({Value::String(text), Value::Null()});
    tuples.push_back({Value::Null(), Value::String(text)});
  }
  for (const Tuple& a : tuples) {
    for (const Tuple& b : tuples) {
      ExpectSameFeatureBits(schema_a, a, schema_a, b);
      ExpectSameFeatureBits(schema_a, a, schema_b, b);
    }
  }
}

TEST(ZeroErTest, SeparatesSyntheticMixture) {
  // Two well-separated Gaussian clusters in feature space.
  Rng rng(42);
  std::vector<std::vector<double>> features;
  std::vector<bool> truth;
  for (int i = 0; i < 200; ++i) {
    const bool match = i < 60;
    std::vector<double> f(static_cast<size_t>(kNumPairFeatures));
    for (auto& v : f) {
      v = (match ? 0.8 : 0.2) + 0.05 * rng.Normal();
    }
    features.push_back(std::move(f));
    truth.push_back(match);
  }
  ZeroEr zeroer;
  auto scores = zeroer.FitPredict(features);
  BinaryConfusion confusion;
  for (size_t i = 0; i < scores.size(); ++i) {
    confusion.Add(scores[i] >= 0.5, truth[i]);
  }
  EXPECT_GT(confusion.F1(), 0.95);
}

TEST(ZeroErTest, EvaluateOnBenchmarkBeatsCoinFlip) {
  ProductUniverse universe(120, 88);
  auto suite = DefaultBenchmarkSuite(0.25);
  ErBenchmark bench = GenerateErBenchmark(universe, suite[0]);
  ZeroEr zeroer;
  BinaryConfusion confusion = zeroer.Evaluate(bench);
  EXPECT_GT(confusion.F1(), 0.25);
}

TEST(DeepMatcherTest, LearnsSeparableData) {
  Rng rng(5);
  std::vector<std::vector<double>> x;
  std::vector<bool> y;
  for (int i = 0; i < 300; ++i) {
    const bool label = i % 3 == 0;
    std::vector<double> f(static_cast<size_t>(kNumPairFeatures));
    for (auto& v : f) v = (label ? 0.75 : 0.25) + 0.1 * rng.Normal();
    x.push_back(std::move(f));
    y.push_back(label);
  }
  DeepMatcherConfig config;
  config.epochs = 30;
  DeepMatcher matcher(config);
  matcher.Train(x, y);
  auto scores = matcher.Predict(x);
  BinaryConfusion confusion;
  for (size_t i = 0; i < scores.size(); ++i) {
    confusion.Add(scores[i] >= 0.5, y[i]);
  }
  EXPECT_GT(confusion.F1(), 0.9);
}

TEST(DecisionTreeTest, LearnsAxisAlignedSplit) {
  std::vector<std::vector<double>> x;
  std::vector<bool> y;
  for (int i = 0; i < 100; ++i) {
    const double v = i / 100.0;
    x.push_back({v, 0.5});
    y.push_back(v > 0.6);
  }
  DecisionTree tree;
  Rng rng(1);
  tree.Fit(x, y, DecisionTree::Options{}, &rng);
  EXPECT_GT(tree.PredictProba({0.9, 0.5}), 0.8);
  EXPECT_LT(tree.PredictProba({0.1, 0.5}), 0.2);
  EXPECT_GT(tree.NodeCount(), 1);
}

TEST(DecisionTreeTest, PureNodeIsLeaf) {
  std::vector<std::vector<double>> x = {{0.1}, {0.2}, {0.3}};
  std::vector<bool> y = {true, true, true};
  DecisionTree tree;
  Rng rng(2);
  tree.Fit(x, y, DecisionTree::Options{}, &rng);
  EXPECT_EQ(tree.NodeCount(), 1);
  EXPECT_DOUBLE_EQ(tree.PredictProba({0.5}), 1.0);
}

TEST(RandomForestTest, EnsembleLearnsXorishData) {
  // XOR pattern needs depth >= 2; forests handle it.
  std::vector<std::vector<double>> x;
  std::vector<bool> y;
  Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    const double a = rng.UniformDouble();
    const double b = rng.UniformDouble();
    x.push_back({a, b});
    y.push_back((a > 0.5) != (b > 0.5));
  }
  RandomForest forest;
  forest.Fit(x, y);
  BinaryConfusion confusion;
  for (size_t i = 0; i < x.size(); ++i) {
    confusion.Add(forest.PredictProba(x[i]) >= 0.5, y[i]);
  }
  EXPECT_GT(confusion.Accuracy(), 0.85);
}

TEST(RandomForestTest, InDomainBenchmarkEvaluation) {
  ProductUniverse universe(120, 99);
  auto suite = DefaultBenchmarkSuite(0.25);
  ErBenchmark bench = GenerateErBenchmark(universe, suite[2]);
  RandomForest forest;
  BinaryConfusion confusion = forest.EvaluateInDomain(bench);
  EXPECT_GT(confusion.F1(), 0.5);
}

}  // namespace
}  // namespace rpt
