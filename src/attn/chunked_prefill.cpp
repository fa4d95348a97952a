#include "attn/chunked_prefill.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "numeric/math.hpp"

namespace lserve::attn {
namespace {

/// Folds one TQ x TK tile into the per-row accumulators: rows
/// [row0, row0+rows) attend to keys [col0, col0+cols) subject to the causal
/// bound key <= row, in ascending key order. `acc[r]` belongs to row0 + r.
void fold_causal_tile(num::ConstMatView q, num::ConstMatView k,
                      num::ConstMatView v, float scale, std::size_t row0,
                      std::size_t rows, std::size_t col0, std::size_t cols,
                      std::vector<num::OnlineSoftmax>& acc) {
  const std::size_t d = q.cols;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t row = row0 + r;
    const float* qr = q.row(row);
    num::OnlineSoftmax& a = acc[r];
    // Causal frontier inside the tile.
    const std::size_t hi = std::min(col0 + cols, row + 1);
    for (std::size_t c = col0; c < hi; ++c) {
      a.fold_one(scale * num::dot(qr, k.row(c), d), v.row(c));
    }
  }
}

}  // namespace

void chunked_prefill_head(const kv::PageAllocator& alloc,
                          const kv::SelectedPageTable& history,
                          std::size_t history_tokens, num::ConstMatView q,
                          num::ConstMatView k, num::ConstMatView v,
                          const BlockMask& chunk_mask, PrefillTiling tiling,
                          float scale, num::MatView out) {
  assert(q.cols == k.cols && k.rows == v.rows && out.rows == q.rows);
  const std::size_t n = q.rows;
  const std::size_t d = q.cols;
  const std::size_t tq = tiling.tile_q;
  const std::size_t tk = tiling.tile_k;
  const std::size_t page_size = alloc.config().page_size;
  const std::size_t q_blocks = (n + tq - 1) / tq;
  assert(chunk_mask.q_blocks() == q_blocks);

  std::vector<num::OnlineSoftmax> acc;
  acc.reserve(tq);
  for (std::size_t i = 0; i < tq; ++i) acc.emplace_back(d);
  std::vector<float> key(d);
  std::vector<float> value(d);

  for (std::size_t qb = 0; qb < q_blocks; ++qb) {
    const std::size_t row0 = qb * tq;
    const std::size_t rows = std::min(tq, n - row0);
    for (std::size_t r = 0; r < rows; ++r) acc[r].reset();

    // History phase: every chunk row attends all listed cached tokens.
    // Scores are computed once per (row, token); the page loop is the
    // sequential KV walk of the decode kernel, shared across the tile.
    for (const kv::SelectedPage& entry : history) {
      const kv::PagePin pin = alloc.pin(entry.page);
      const kv::Page& page = pin.page();
      const std::size_t begin =
          static_cast<std::size_t>(entry.block) * page_size;
      std::size_t count =
          history_tokens > begin ? history_tokens - begin : 0;
      count = std::min({count, page_size, page.size()});
      for (std::size_t s = 0; s < count; ++s) {
        page.load_key(s, key.data());
        page.load_value(s, value.data());
        for (std::size_t r = 0; r < rows; ++r) {
          acc[r].fold_one(scale * num::dot(q.row(row0 + r), key.data(), d),
                          value.data());
        }
      }
    }

    // In-chunk phase: block-sparse causal over the chunk's own keys; the
    // iterator's trip count equals the number of live tiles.
    BlockIterator it(chunk_mask.row_blocks(qb));
    while (!it.done()) {
      const std::size_t col0 = it.next() * tk;
      fold_causal_tile(q, k, v, scale, row0, rows, col0,
                       std::min(tk, k.rows - col0), acc);
    }

    for (std::size_t r = 0; r < rows; ++r) {
      acc[r].finish(out.row(row0 + r));
    }
  }
}

void block_sparse_prefill_branchy(num::ConstMatView q, num::ConstMatView k,
                                  num::ConstMatView v, const BlockMask& mask,
                                  PrefillTiling tiling, float scale,
                                  num::MatView out) {
  assert(q.cols == k.cols && k.rows == v.rows && out.rows == q.rows);
  const std::size_t n = q.rows;
  const std::size_t tq = tiling.tile_q;
  const std::size_t tk = tiling.tile_k;
  const std::size_t q_blocks = (n + tq - 1) / tq;
  assert(mask.q_blocks() == q_blocks);

  std::vector<num::OnlineSoftmax> acc;
  acc.reserve(tq);
  for (std::size_t i = 0; i < tq; ++i) acc.emplace_back(q.cols);

  for (std::size_t qb = 0; qb < q_blocks; ++qb) {
    const std::size_t row0 = qb * tq;
    const std::size_t rows = std::min(tq, n - row0);
    for (std::size_t r = 0; r < rows; ++r) acc[r].reset();

    // Sequential walk over every causal tile with an in-loop keep/skip
    // branch.
    const std::size_t diag = (row0 + rows - 1) / tk;
    for (std::size_t kb = 0; kb <= diag; ++kb) {
      if (!mask.kept(qb, kb)) continue;
      const std::size_t col0 = kb * tk;
      fold_causal_tile(q, k, v, scale, row0, rows, col0,
                       std::min(tk, k.rows - col0), acc);
    }

    for (std::size_t r = 0; r < rows; ++r) {
      acc[r].finish(out.row(row0 + r));
    }
  }
}

void chunked_prefill_streaming_head(
    const kv::PageAllocator& alloc, const kv::SelectedPageTable& history,
    std::size_t history_tokens, std::size_t total_tokens,
    num::ConstMatView q, num::ConstMatView k, num::ConstMatView v,
    StreamingBlocks streaming, PrefillTiling tiling, float scale,
    num::MatView out) {
  assert(q.cols == k.cols && k.rows == v.rows && out.rows == q.rows);
  assert(history_tokens + q.rows <= total_tokens);
  const std::size_t n = q.rows;
  const std::size_t d = q.cols;
  const std::size_t tq = tiling.tile_q;
  const std::size_t tk = tiling.tile_k;
  const std::size_t page_size = alloc.config().page_size;
  const std::size_t q_blocks = (n + tq - 1) / tq;

  // Diagonal k-tile of absolute row p: the tile holding the last token of
  // p's (absolute) q-tile, clamped to the causal frontier — the same
  // formula BlockMask::streaming() uses, evaluated against total_tokens so
  // every chunking of the sequence makes identical decisions.
  const auto diag_tile = [&](std::size_t p) {
    const std::size_t qb = p / tq;
    const std::size_t last_row = std::min((qb + 1) * tq, total_tokens) - 1;
    return last_row / tk;
  };
  const auto allowed = [&](std::size_t diag, std::size_t c) {
    const std::size_t kb = c / tk;
    return kb < streaming.sink_blocks || kb + streaming.local_blocks > diag;
  };

  std::vector<num::OnlineSoftmax> acc;
  acc.reserve(tq);
  for (std::size_t i = 0; i < tq; ++i) acc.emplace_back(d);
  std::vector<float> key(d);
  std::vector<float> value(d);
  std::vector<std::size_t> diag(tq);

  for (std::size_t qb = 0; qb < q_blocks; ++qb) {
    const std::size_t row0 = qb * tq;
    const std::size_t rows = std::min(tq, n - row0);
    for (std::size_t r = 0; r < rows; ++r) {
      acc[r].reset();
      diag[r] = diag_tile(history_tokens + row0 + r);
    }

    // History phase: cached tokens in ascending absolute order, each row
    // folding only the tokens its Λ band keeps (history precedes every
    // chunk row, so causality is implied).
    for (const kv::SelectedPage& entry : history) {
      const std::size_t begin =
          static_cast<std::size_t>(entry.block) * page_size;
      std::size_t count =
          history_tokens > begin ? history_tokens - begin : 0;
      if (count == 0) continue;
      const kv::PagePin pin = alloc.pin(entry.page);
      const kv::Page& page = pin.page();
      count = std::min({count, page_size, page.size()});
      for (std::size_t s = 0; s < count; ++s) {
        const std::size_t c = begin + s;
        bool any = false;
        for (std::size_t r = 0; r < rows && !any; ++r) {
          any = allowed(diag[r], c);
        }
        if (!any) continue;
        page.load_key(s, key.data());
        page.load_value(s, value.data());
        for (std::size_t r = 0; r < rows; ++r) {
          if (!allowed(diag[r], c)) continue;
          acc[r].fold_one(scale * num::dot(q.row(row0 + r), key.data(), d),
                          value.data());
        }
      }
    }

    // In-chunk phase: columns ascending so each row's fold order stays the
    // ascending-token order of a whole-prompt Λ tile walk.
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t c = history_tokens + j;
      for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t row = row0 + r;
        if (j > row || !allowed(diag[r], c)) continue;
        acc[r].fold_one(scale * num::dot(q.row(row), k.row(j), d), v.row(j));
      }
    }

    for (std::size_t r = 0; r < rows; ++r) {
      acc[r].finish(out.row(row0 + r));
    }
  }
}

}  // namespace lserve::attn
