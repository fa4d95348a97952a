// Block-sparse prefill tile geometry (LServe §3.1, §3.4).
//
// Prefill processes TQ x TK tiles; a tile is either fully computed or
// fully skipped according to a BlockMask. Per query row an OnlineSoftmax
// accumulator folds each visited tile, so the loop structure is exactly the
// GPU kernel's: parallel over query tiles (thread blocks), sequential over
// key tiles. The kernels live in attn/chunked_prefill.hpp.
#pragma once

#include <cstddef>

namespace lserve::attn {

/// Tile geometry for the prefill kernel.
struct PrefillTiling {
  std::size_t tile_q = 64;  ///< TQ (query rows per tile; >1 in prefill).
  std::size_t tile_k = 64;  ///< TK (key columns per tile; = page size).
};

}  // namespace lserve::attn
