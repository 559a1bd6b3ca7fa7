#include "text/similarity.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "text/tokenizer.h"

namespace rpt {

namespace {

// Unit-cost edit distance over one row of the DP matrix, reusing `row`'s
// storage across calls. Row i holds distance(a[0, i), b[0, j)) at j; the
// cell to the left stays in a register.
int64_t EditDistance(std::string_view a, std::string_view b,
                     std::vector<int64_t>* row) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n == 0) return static_cast<int64_t>(m);
  if (m == 0) return static_cast<int64_t>(n);
  row->resize(m + 1);
  int64_t* r = row->data();
  for (size_t j = 0; j <= m; ++j) r[j] = static_cast<int64_t>(j);
  for (size_t i = 1; i <= n; ++i) {
    const char ca = a[i - 1];
    int64_t diagonal = r[0];
    int64_t left = static_cast<int64_t>(i);
    r[0] = left;
    for (size_t j = 1; j <= m; ++j) {
      const int64_t above = r[j];
      left = std::min(std::min(above, left) + 1,
                      diagonal + (ca == b[j - 1] ? 0 : 1));
      r[j] = left;
      diagonal = above;
    }
  }
  return r[m];
}

double SimilarityOf(std::string_view a, std::string_view b,
                    std::vector<int64_t>* row) {
  const size_t mx = std::max(a.size(), b.size());
  if (mx == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b, row)) /
                   static_cast<double>(mx);
}

// Calls on_shared(i, j) for every value two sorted distinct vectors share
// (a[i] == b[j]), in increasing order.
template <typename T, typename Fn>
void ForEachShared(const std::vector<T>& a, const std::vector<T>& b,
                   Fn&& on_shared) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      on_shared(i++, j++);
    }
  }
}

template <typename T>
size_t IntersectionSize(const std::vector<T>& a, const std::vector<T>& b) {
  size_t shared = 0;
  ForEachShared(a, b, [&shared](size_t, size_t) { ++shared; });
  return shared;
}

template <typename T>
double Jaccard(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t inter = IntersectionSize(a, b);
  return static_cast<double>(inter) / (a.size() + b.size() - inter);
}

// The sorted distinct tokens of `text`: TextProfile::words without the
// token sequence, the counts or the trigrams.
std::vector<std::string> SortedDistinctTokens(std::string_view text) {
  std::vector<std::string> tokens = Tokenizer::Tokenize(text);
  std::sort(tokens.begin(), tokens.end());
  tokens.erase(std::unique(tokens.begin(), tokens.end()), tokens.end());
  return tokens;
}

// Mean over the token sequence of each token's best word similarity.
double MeanOfBest(const std::vector<int32_t>& sequence,
                  const std::vector<double>& best) {
  double total = 0.0;
  for (int32_t w : sequence) total += best[static_cast<size_t>(w)];
  return total / static_cast<double>(sequence.size());
}

}  // namespace

TextProfile::TextProfile(std::string_view text) {
  std::vector<std::string> tokens = Tokenizer::Tokenize(text);
  // Visit the token positions in token order and number each distinct token.
  std::vector<int32_t> order(tokens.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&tokens](int32_t x, int32_t y) {
    return tokens[static_cast<size_t>(x)] < tokens[static_cast<size_t>(y)];
  });
  sequence.resize(tokens.size());
  for (int32_t position : order) {
    std::string& token = tokens[static_cast<size_t>(position)];
    if (words.empty() || words.back() != token) {
      words.push_back(std::move(token));
      counts.push_back(0);
    }
    sequence[static_cast<size_t>(position)] =
        static_cast<int32_t>(words.size() - 1);
    ++counts.back();
  }

  std::string padded = "##";
  padded += Tokenizer::Normalize(text);
  padded += "##";
  trigrams.reserve(padded.size() - 2);
  for (size_t i = 0; i + 3 <= padded.size(); ++i) {
    trigrams.push_back(static_cast<uint32_t>(
        static_cast<unsigned char>(padded[i]) << 16 |
        static_cast<unsigned char>(padded[i + 1]) << 8 |
        static_cast<unsigned char>(padded[i + 2])));
  }
  std::sort(trigrams.begin(), trigrams.end());
  trigrams.erase(std::unique(trigrams.begin(), trigrams.end()),
                 trigrams.end());
}

int64_t LevenshteinDistance(std::string_view a, std::string_view b) {
  std::vector<int64_t> row;
  return EditDistance(a, b, &row);
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  std::vector<int64_t> row;
  return SimilarityOf(a, b, &row);
}

double TokenJaccard(const TextProfile& a, const TextProfile& b) {
  return Jaccard(a.words, b.words);
}

double TokenJaccard(std::string_view a, std::string_view b) {
  return Jaccard(SortedDistinctTokens(a), SortedDistinctTokens(b));
}

double QGramJaccard(const TextProfile& a, const TextProfile& b) {
  return Jaccard(a.trigrams, b.trigrams);
}

double QGramJaccard(std::string_view a, std::string_view b) {
  return QGramJaccard(TextProfile(a), TextProfile(b));
}

double TokenContainment(const TextProfile& a, const TextProfile& b) {
  if (a.words.empty() && b.words.empty()) return 1.0;
  const size_t smaller = std::min(a.words.size(), b.words.size());
  if (smaller == 0) return 0.0;
  return static_cast<double>(IntersectionSize(a.words, b.words)) / smaller;
}

double TokenContainment(std::string_view a, std::string_view b) {
  return TokenContainment(TextProfile(a), TextProfile(b));
}

double TokenCosine(const TextProfile& a, const TextProfile& b) {
  if (a.words.empty() && b.words.empty()) return 1.0;
  if (a.words.empty() || b.words.empty()) return 0.0;
  // Products and sums of integer counts are exact in a double, so the
  // order of summation cannot change the result.
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (int64_t c : a.counts) na += static_cast<double>(c) * c;
  for (int64_t c : b.counts) nb += static_cast<double>(c) * c;
  ForEachShared(a.words, b.words, [&](size_t i, size_t j) {
    dot += static_cast<double>(a.counts[i]) * b.counts[j];
  });
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double TokenCosine(std::string_view a, std::string_view b) {
  return TokenCosine(TextProfile(a), TextProfile(b));
}

std::pair<double, double> MongeElkanBothWays(const TextProfile& a,
                                             const TextProfile& b) {
  if (a.sequence.empty() && b.sequence.empty()) return {1.0, 1.0};
  if (a.sequence.empty() || b.sequence.empty()) return {0.0, 0.0};
  // Edit distance is symmetric, so one matrix over the distinct words
  // serves both directions; the max over a word's duplicates is the same.
  std::vector<double> best_a(a.words.size(), 0.0);
  std::vector<double> best_b(b.words.size(), 0.0);
  std::vector<int64_t> row;
  for (size_t i = 0; i < a.words.size(); ++i) {
    for (size_t j = 0; j < b.words.size(); ++j) {
      const double sim = SimilarityOf(a.words[i], b.words[j], &row);
      best_a[i] = std::max(best_a[i], sim);
      best_b[j] = std::max(best_b[j], sim);
    }
  }
  return {MeanOfBest(a.sequence, best_a), MeanOfBest(b.sequence, best_b)};
}

double MongeElkan(std::string_view a, std::string_view b) {
  return MongeElkanBothWays(TextProfile(a), TextProfile(b)).first;
}

double NumericSimilarity(double a, double b) {
  const double mx = std::max(std::fabs(a), std::fabs(b));
  if (mx == 0.0) return 1.0;
  const double sim = 1.0 - std::fabs(a - b) / mx;
  return std::max(0.0, std::min(1.0, sim));
}

}  // namespace rpt
