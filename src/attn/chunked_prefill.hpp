// Chunked prefill: attention for a chunk of new tokens over (a) the paged
// KV history already in the cache and (b) the chunk itself, causally.
//
// Serving systems prefill very long prompts in chunks to bound activation
// memory; each chunk's queries attend to every cached token (full history
// visibility) plus the in-chunk causal prefix. The history side reuses the
// pruned-page-table interface, so streaming heads pass their sink+local
// index table and dense heads the full table — the same unification as
// decode (§3.6). These are the two prefill kernels the engine serves;
// called with an empty history they are also the whole-prompt prefill that
// benches and tests time and check against the dense/streaming oracles.
// block_sparse_prefill_branchy, the Fig 12 ablation, shares the in-chunk
// tile fold of chunked_prefill_head.
#pragma once

#include <cstddef>

#include "attn/block_iterator.hpp"
#include "attn/block_sparse_prefill.hpp"
#include "attn/streaming_attention.hpp"
#include "kv/page_allocator.hpp"
#include "kv/page_table.hpp"
#include "numeric/tensor.hpp"

namespace lserve::attn {

/// Prefill one head's chunk with paged history.
///
/// `history` lists the cached pages to attend (sorted by block) holding
/// `history_tokens` total sequence tokens so far; q/k/v are the chunk's
/// [n x d] projections (RoPE already applied at absolute positions);
/// `chunk_mask` is the finalized in-chunk block mask (causal / streaming /
/// dynamic, sized for n and `tiling`); `out` is [n x d].
void chunked_prefill_head(const kv::PageAllocator& alloc,
                          const kv::SelectedPageTable& history,
                          std::size_t history_tokens, num::ConstMatView q,
                          num::ConstMatView k, num::ConstMatView v,
                          const BlockMask& chunk_mask, PrefillTiling tiling,
                          float scale, num::MatView out);

/// Prefill one STREAMING head's chunk with the Λ mask evaluated in
/// absolute sequence coordinates.
///
/// Tile liveness is decided from absolute q/k tile indices and the full
/// sequence length `total_tokens`, exactly as BlockMask::streaming does
/// for the whole prompt; a chunk starting at token `history_tokens` must
/// reproduce those decisions or resuming prefill at a chunk — or
/// prefix-cache attach — boundary changes which tokens each row attends.
/// The predicate is applied per (row, token): key tile kb is live for
/// absolute row p iff kb < sink_blocks or kb + local_blocks > diag(p),
/// diag(p) being the k-tile of the last row of p's q-tile clamped to
/// total_tokens; tokens fold in ascending absolute order, so with an empty
/// history the output is bit-identical to chunked_prefill_head under the
/// Λ BlockMask. (The in-chunk loop tests the predicate per token instead
/// of skipping dead tiles, so it is slower than the tile iterator.)
///
/// `history` must list every retained block (sink + local ring, plus any
/// not-yet-evicted pages appended for the chunk itself; entries at or past
/// `history_tokens` are ignored). q/k/v are the chunk's [n x d] rows with
/// k/v already round-tripped through the cache dtype.
void chunked_prefill_streaming_head(
    const kv::PageAllocator& alloc, const kv::SelectedPageTable& history,
    std::size_t history_tokens, std::size_t total_tokens,
    num::ConstMatView q, num::ConstMatView k, num::ConstMatView v,
    StreamingBlocks streaming, PrefillTiling tiling, float scale,
    num::MatView out);

/// Block-sparse causal prefill for one head over a whole prompt that walks
/// every causal tile with an in-loop mask branch instead of the compressed
/// iterator: the MInference-style comparator of Fig 12 (kernel efficiency
/// at equal sparsity). q, k, v: [n x d]; out: [n x d]; `mask` must be
/// finalized and sized for (n, tiling). Bit-identical to
/// chunked_prefill_head with an empty history.
void block_sparse_prefill_branchy(num::ConstMatView q, num::ConstMatView k,
                                  num::ConstMatView v, const BlockMask& mask,
                                  PrefillTiling tiling, float scale,
                                  num::MatView out);

}  // namespace lserve::attn
