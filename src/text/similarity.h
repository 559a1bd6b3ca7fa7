// String similarity measures used by the matcher, PET, the hybrid cleaner,
// the feature-based baselines (ZeroER, DeepMatcher, Magellan), and
// evaluation.
//
// The token and q-gram measures read a TextProfile: one string's tokens,
// its sorted distinct tokens with their counts, and its sorted distinct
// trigrams, built once. Each measure has a profile form and a string_view
// form; the string_view form builds both profiles and calls the profile
// form, so every caller runs one implementation. The one exception is
// TokenJaccard's string_view form, which builds only each string's sorted
// distinct tokens (the profile's `words`) and runs the same set ratio. A
// caller that needs several measures of one pair (PairFeatures) builds the
// two profiles once.
//
// Every measure is a ratio of integer counts, a square root of exact
// integer sums, or a mean of per-token maxima summed in token order, so the
// results do not depend on how the sets are stored.

#ifndef RPT_TEXT_SIMILARITY_H_
#define RPT_TEXT_SIMILARITY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rpt {

/// What the token and q-gram measures read of one string.
struct TextProfile {
  /// Tokenizes `text` (Tokenizer::Tokenize) and collects the '#'-padded
  /// character trigrams of Tokenizer::Normalize(text).
  explicit TextProfile(std::string_view text);

  std::vector<std::string> words;  // sorted distinct tokens
  std::vector<int64_t> counts;     // occurrences of words[i]
  std::vector<int32_t> sequence;   // the tokens in order, as word indices
  std::vector<uint32_t> trigrams;  // sorted distinct trigrams, 3 bytes each
};

/// Classic edit distance (insert/delete/substitute, unit costs).
int64_t LevenshteinDistance(std::string_view a, std::string_view b);

/// 1 - distance / max(len); 1.0 for two empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Jaccard similarity of the *token sets* of the two strings (tokenized
/// with Tokenizer); 1.0 for two empty strings.
double TokenJaccard(std::string_view a, std::string_view b);
double TokenJaccard(const TextProfile& a, const TextProfile& b);

/// Jaccard similarity of the character trigram sets (normalized text
/// padded with "##" on both sides).
double QGramJaccard(std::string_view a, std::string_view b);
double QGramJaccard(const TextProfile& a, const TextProfile& b);

/// |tokens(a) ∩ tokens(b)| / |tokens(shorter)|; 1.0 for two empty strings.
double TokenContainment(std::string_view a, std::string_view b);
double TokenContainment(const TextProfile& a, const TextProfile& b);

/// Cosine similarity of token count vectors.
double TokenCosine(std::string_view a, std::string_view b);
double TokenCosine(const TextProfile& a, const TextProfile& b);

/// Monge-Elkan: mean over tokens of a of the best Levenshtein similarity
/// against tokens of b (asymmetric; callers usually average both ways).
double MongeElkan(std::string_view a, std::string_view b);

/// Monge-Elkan both ways, {ME(a, b), ME(b, a)}, from one similarity matrix
/// over the distinct words of the two profiles.
std::pair<double, double> MongeElkanBothWays(const TextProfile& a,
                                             const TextProfile& b);

/// Similarity of two numeric values: 1 - |a-b| / max(|a|, |b|), clamped to
/// [0, 1]; 1.0 when both are 0.
double NumericSimilarity(double a, double b);

}  // namespace rpt

#endif  // RPT_TEXT_SIMILARITY_H_
