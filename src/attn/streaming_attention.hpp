// Streaming-head attention (Λ-shaped mask: attention sinks + local window).
//
// Prefill for streaming heads runs attn::chunked_prefill_streaming_head
// (the Λ predicate of BlockMask::streaming in absolute coordinates); this
// header provides the Λ geometry and an exact token-granular reference
// used by the head classifier and tests. Decode for streaming
// heads goes through the unified sparse decode kernel with the sink+local
// index table produced by kv::StreamingHeadCache (§3.6), so no separate
// decode kernel exists here — that is the point of the unification.
#pragma once

#include <cstddef>

#include "numeric/tensor.hpp"

namespace lserve::attn {

/// Λ-mask geometry in blocks.
struct StreamingBlocks {
  std::size_t sink_blocks = 1;
  std::size_t local_blocks = 2;
};

/// Token-granular reference: row i attends to keys j <= i with
/// (j < sink_tokens) or (j + local_tokens > i).
void streaming_prefill_reference(num::ConstMatView q, num::ConstMatView k,
                                 num::ConstMatView v, std::size_t sink_tokens,
                                 std::size_t local_tokens, float scale,
                                 num::MatView out);

/// Per-token compute of a streaming head relative to dense causal attention
/// at sequence length n (for the "nearly free" accounting): kept / causal
/// key-token pairs.
double streaming_cost_fraction(std::size_t n_tokens, std::size_t sink_tokens,
                               std::size_t local_tokens) noexcept;

}  // namespace lserve::attn
