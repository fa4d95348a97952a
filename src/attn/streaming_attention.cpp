#include "attn/streaming_attention.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "numeric/math.hpp"

namespace lserve::attn {

void streaming_prefill_reference(num::ConstMatView q, num::ConstMatView k,
                                 num::ConstMatView v, std::size_t sink_tokens,
                                 std::size_t local_tokens, float scale,
                                 num::MatView out) {
  const std::size_t n = q.rows;
  const std::size_t d = q.cols;
  std::vector<float> scores;
  std::vector<std::size_t> cols;
  for (std::size_t i = 0; i < n; ++i) {
    scores.clear();
    cols.clear();
    for (std::size_t j = 0; j <= i; ++j) {
      const bool sink = j < sink_tokens;
      const bool local = j + local_tokens > i;
      if (!sink && !local) continue;
      cols.push_back(j);
      scores.push_back(scale * num::dot(q.row(i), k.row(j), d));
    }
    num::softmax_inplace(scores.data(), scores.size());
    float* oi = out.row(i);
    std::fill(oi, oi + d, 0.0f);
    for (std::size_t t = 0; t < cols.size(); ++t) {
      num::axpy(scores[t], v.row(cols[t]), oi, d);
    }
  }
}

double streaming_cost_fraction(std::size_t n_tokens, std::size_t sink_tokens,
                               std::size_t local_tokens) noexcept {
  if (n_tokens == 0) return 1.0;
  double kept = 0.0;
  double causal = 0.0;
  for (std::size_t i = 0; i < n_tokens; ++i) {
    causal += static_cast<double>(i + 1);
    const std::size_t local = std::min<std::size_t>(local_tokens, i + 1);
    const std::size_t sink =
        std::min<std::size_t>(sink_tokens, (i + 1) - local);
    kept += static_cast<double>(sink + local);
  }
  return kept / causal;
}

}  // namespace lserve::attn
