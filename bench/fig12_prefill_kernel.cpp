// Figure 12: prefill-stage block-sparse attention kernel efficiency.
//
// Paper: at equal sparsity, LServe's iterator-based kernel is ~1.3x faster
// than MInference's implementation, and both trail the oracle
// (dense_latency * (1 - sparsity)). This bench MEASURES our CPU kernels:
// the LServe column and the dense baseline time the served dense-head
// kernel (attn::chunked_prefill_head over the whole prompt), whose
// iterator trip count is exactly the live-tile count; the branchy
// (MInference-style) ablation walks every causal tile and branches, so the
// gap between them is the cost of in-loop masking.
#include <cstdio>

#include "attn/chunked_prefill.hpp"
#include "common.hpp"
#include "numeric/rng.hpp"

using namespace lserve;

namespace {

attn::BlockMask random_mask(std::size_t n, std::size_t tile, double sparsity,
                            std::uint64_t seed) {
  attn::BlockMask mask = attn::BlockMask::causal(n, tile, tile);
  num::Rng rng(seed);
  // Drop causal blocks at random (keep each row's diagonal so outputs stay
  // well-defined) until the requested sparsity is reached.
  const std::size_t q_blocks = mask.q_blocks();
  for (std::size_t qb = 0; qb < q_blocks; ++qb) {
    for (std::size_t kb = 0; kb < qb; ++kb) {  // diagonal kept
      if (rng.next_double() < sparsity) mask.set(qb, kb, false);
    }
  }
  mask.finalize();
  return mask;
}

}  // namespace

int main() {
  const std::size_t n = 1024, d = 64, tile = 64;
  num::Rng rng(3);
  num::Tensor q(n, d), k(n, d), v(n, d), out(n, d);
  for (auto* t : {&q, &k, &v}) {
    for (std::size_t i = 0; i < t->size(); ++i) t->data()[i] = rng.gaussian();
  }
  const float scale = 0.125f;
  const attn::PrefillTiling tiling{tile, tile};
  const kv::PageAllocator pool(kv::PageConfig{}, 1);  // empty history.

  attn::BlockMask dense_mask = attn::BlockMask::causal(n, tile, tile);
  dense_mask.finalize();
  const double dense_us = bench::time_us([&] {
    attn::chunked_prefill_head(pool, {}, 0, q.view(), k.view(), v.view(),
                               dense_mask, tiling, scale, out.view());
  });

  bench::section(
      "Fig 12: measured prefill attention kernel latency vs sparsity "
      "(CPU, n=1024, d=64, tile=64)");
  std::printf("Dense attention: %.1f us\n\n", dense_us);
  bench::row("Sparsity", {"Oracle(us)", "LServe(us)", "Branchy(us)",
                          "LSrv/Oracle", "Brnchy/LSrv"});
  for (double target : {0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    const attn::BlockMask mask = random_mask(n, tile, target, 71);
    const double real_sparsity = mask.sparsity_vs_causal(n, tile, tile);
    const double oracle = dense_us * (1.0 - real_sparsity);
    const double ours = bench::time_us([&] {
      attn::chunked_prefill_head(pool, {}, 0, q.view(), k.view(), v.view(),
                                 mask, tiling, scale, out.view());
    });
    const double branchy = bench::time_us([&] {
      attn::block_sparse_prefill_branchy(q.view(), k.view(), v.view(), mask,
                                         tiling, scale, out.view());
    });
    bench::row(bench::fmt(100.0 * real_sparsity, 0) + "%",
               {bench::fmt(oracle, 1), bench::fmt(ours, 1),
                bench::fmt(branchy, 1), bench::fmt(ours / oracle, 2),
                bench::fmt(branchy / ours, 2)});
  }
  std::printf(
      "\nShape check: the iterator kernel tracks the oracle closely at\n"
      "every sparsity level (latency ~ dense x (1-sparsity)). On CPU the\n"
      "branchy comparator is within noise of the iterator kernel (branch\n"
      "predictors hide the masked-walk cost); the paper's 1.3x GPU gap\n"
      "comes from warp-divergence and extra index traffic, which is why\n"
      "LServe builds the compressed iterator OUTSIDE the kernel. The\n"
      "structural claim validated here is oracle-tracking: skipped tiles\n"
      "convert 1:1 into saved time.\n");
  return 0;
}
