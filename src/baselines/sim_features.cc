#include "baselines/sim_features.h"

#include <algorithm>
#include <cmath>

#include "text/similarity.h"
#include "text/tokenizer.h"

namespace rpt {

const std::vector<std::string>& PairFeatureNames() {
  static const auto* names = new std::vector<std::string>{
      "lev_sim",        "token_jaccard", "qgram_jaccard",
      "containment",    "cosine",        "monge_elkan",
      "shared_col_sim", "numeric_sim",   "col_agreement",
      "len_ratio",
  };
  return *names;
}

std::string ConcatTuple(const Tuple& tuple) {
  std::string out;
  for (const auto& v : tuple) {
    if (v.is_null()) continue;
    if (!out.empty()) out += ' ';
    out += v.text();
  }
  return out;
}

std::vector<double> PairFeatures(const Schema& schema_a, const Tuple& a,
                                 const Schema& schema_b, const Tuple& b) {
  const std::string ca = ConcatTuple(a);
  const std::string cb = ConcatTuple(b);
  const TextProfile pa(ca);
  const TextProfile pb(cb);

  std::vector<double> features;
  features.reserve(kNumPairFeatures);
  features.push_back(LevenshteinSimilarity(ca, cb));
  features.push_back(TokenJaccard(pa, pb));
  features.push_back(QGramJaccard(pa, pb));
  features.push_back(TokenContainment(pa, pb));
  features.push_back(TokenCosine(pa, pb));
  const auto [monge_ab, monge_ba] = MongeElkanBothWays(pa, pb);
  features.push_back(0.5 * (monge_ab + monge_ba));

  // Shared-column aggregates.
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
  features.push_back(numeric_shared == 0
                         ? 0.5
                         : numeric_sim_sum / numeric_shared);
  features.push_back(shared == 0 ? 0.5 : agreement_sum / shared);

  const double la = static_cast<double>(ca.size());
  const double lb = static_cast<double>(cb.size());
  features.push_back(std::max(la, lb) == 0
                         ? 1.0
                         : std::min(la, lb) / std::max(la, lb));
  return features;
}

}  // namespace rpt
