// perfbench_traced — the lserve_serve stack with the benchmark's tracing.
//
// Wires Engine, Scheduler and HttpServer the way src/net/serve_main.cpp
// does, with the same defaults, and serves until SIGTERM. The client then
// replays a workload against it exactly as against lserve_serve. On
// shutdown it writes a JSON report (--report=PATH) with
//   - EngineStats, SchedulerStats, prefix-cache and tier counters;
//   - the step trace (every step's duration and per-phase span totals),
//     which --trace-steps must size to hold the whole run;
//   - server-side histograms and peaks of the occupancy gauges, sampled
//     every 2 ms while serving;
//   - timings of the public kernel calls (num::matmul,
//     attn::fused_chunked_prefill, attn::fused_sparse_decode,
//     sparse::select_pages_hierarchical, Engine::decode_batch) on a fresh
//     engine at the workload's context length (--kernel-context=N);
//   - per head kind, the most tokens one head visits in a decode step, at
//     every multiple of kBoundEvery tokens up to the kernel context.
//
//   perfbench_traced --port=0 --model=tiny --trace-steps=50000
//                    --report=out.json --kernel-context=6144
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "attn/decode_attention.hpp"
#include "attn/fused_attention.hpp"
#include "baselines/baseline_engines.hpp"
#include "kv/memory_config.hpp"
#include "net/server.hpp"
#include "numeric/math.hpp"
#include "numeric/rng.hpp"
#include "numeric/tensor.hpp"
#include "obs/metrics.hpp"
#include "obs/step_tracer.hpp"
#include "serve/scheduler.hpp"
#include "sparse/hierarchical_selector.hpp"

namespace {

using namespace lserve;
using Clock = std::chrono::steady_clock;

/// The visited-token bound is checked at every multiple of this context.
constexpr std::size_t kBoundEvery = 512;

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

// Defaults mirror serve_main.cpp's Options.
struct Options {
  std::uint16_t port = 8080;
  std::string model = "small";
  std::size_t max_batch = 8;
  std::size_t decode_threads = 1;
  kv::MemoryConfig memory;
  std::size_t prefill_chunk = 128;
  std::size_t max_live = 64;
  std::size_t trace_steps = 256;
  std::string report;
  std::size_t kernel_context = 128;
};

bool parse_size(const char* arg, const char* key, std::size_t& out) {
  const std::size_t klen = std::strlen(key);
  if (std::strncmp(arg, key, klen) != 0 || arg[klen] != '=') return false;
  out = static_cast<std::size_t>(std::strtoull(arg + klen + 1, nullptr, 10));
  return true;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

/// Median wall time of `reps` calls of `fn`, in milliseconds.
template <typename Fn>
double time_ms(std::size_t reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    samples.push_back(ms_since(t0));
  }
  return median(std::move(samples));
}

num::Tensor random_tensor(std::size_t rows, std::size_t cols, num::Rng& rng) {
  num::Tensor t(rows, cols);
  for (float& x : t.flat()) x = rng.uniform(-1.0f, 1.0f);
  return t;
}

std::vector<std::int32_t> random_prompt(std::size_t n, std::size_t vocab,
                                        num::Rng& rng) {
  std::vector<std::int32_t> ids(n);
  for (auto& id : ids) {
    id = static_cast<std::int32_t>(rng.uniform(0.0f, 1.0f) *
                                   static_cast<float>(vocab)) %
         static_cast<std::int32_t>(vocab);
  }
  return ids;
}

/// Minimal JSON object writer: keys in insertion order, numbers only, plus
/// nested objects and number arrays.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return raw(key, buf);
  }
  Json& obj(const std::string& key, const Json& v) { return raw(key, v.str()); }
  Json& arr(const std::string& key, const std::vector<double>& xs) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < xs.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.6g", i == 0 ? "" : ",", xs[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string body_;
};

/// Peaks of occupancy gauges the scheduler publishes once per step.
class GaugeSampler {
 public:
  explicit GaugeSampler(const obs::MetricsRegistry& reg)
      : pages_(reg.find_gauge("lserve_kv_pages_in_use")),
        cold_(reg.find_gauge("lserve_kv_cold_bytes")),
        thread_([this] { run(); }) {}
  ~GaugeSampler() { stop(); }
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  void stop() {
    done_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  double peak_pages() const { return peak_pages_; }
  double peak_cold_bytes() const { return peak_cold_; }

 private:
  void run() {
    while (!done_.load()) {
      if (pages_ != nullptr) peak_pages_ = std::max(peak_pages_, pages_->value());
      if (cold_ != nullptr) peak_cold_ = std::max(peak_cold_, cold_->value());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  const obs::Gauge* pages_;
  const obs::Gauge* cold_;
  double peak_pages_ = 0.0;  ///< written by thread_ only, read after join.
  double peak_cold_ = 0.0;
  std::atomic<bool> done_{false};
  std::thread thread_;  ///< declared last: starts after the fields it uses.
};

/// Aggregates of the retained step trace.
Json trace_report(const obs::StepTracer& tracer) {
  const std::vector<obs::StepTrace> steps = tracer.snapshot();
  std::map<std::string, double> total_ms;
  std::vector<double> step_ms;
  std::vector<double> decode_ms;
  step_ms.reserve(steps.size());
  for (const obs::StepTrace& s : steps) {
    step_ms.push_back(static_cast<double>(s.dur_ns) * 1e-6);
    for (const obs::TraceSpan& sp : s.spans) {
      const double ms = static_cast<double>(sp.dur_ns) * 1e-6;
      total_ms[sp.name] += ms;
      if (std::strcmp(sp.name, "decode_batch") == 0) decode_ms.push_back(ms);
    }
  }
  Json totals;
  for (const auto& [name, ms] : total_ms) totals.num(name, ms);
  Json out;
  out.num("committed", static_cast<double>(tracer.committed()))
      .num("retained", static_cast<double>(steps.size()))
      .obj("span_total_ms", totals)
      .arr("step_ms", step_ms)
      .arr("decode_batch_ms", decode_ms);
  return out;
}

attn::FusedPrefillConfig prefill_config(const serve::EngineConfig& cfg,
                                        std::size_t total_tokens) {
  // Mirrors Engine::prefill_config (private) for the causal-prefill preset.
  attn::FusedPrefillConfig pc;
  pc.tiling = cfg.tiling;
  pc.streaming.sink_blocks =
      (cfg.streaming.sink_tokens + cfg.tiling.tile_k - 1) / cfg.tiling.tile_k;
  pc.streaming.local_blocks = std::max<std::size_t>(
      1, (cfg.streaming.local_tokens + cfg.tiling.tile_k - 1) /
             cfg.tiling.tile_k);
  pc.total_tokens = total_tokens;
  return pc;
}

attn::FusedDecodeConfig decode_config(const serve::EngineConfig& cfg) {
  // Mirrors Engine::decode_config (private) on the sparse route.
  attn::FusedDecodeConfig dc;
  dc.dynamic_dense = cfg.dynamic_decode;
  dc.hierarchical = cfg.hierarchical;
  dc.selector = cfg.selector;
  return dc;
}

/// Most tokens any head of each kind visits in one decode step of `seq`.
struct VisitedMax {
  std::size_t dense = 0;
  std::size_t streaming = 0;
};

VisitedMax visited_per_head(serve::Engine& eng, const serve::Sequence& seq,
                            num::Rng& rng) {
  const serve::EngineConfig& cfg = eng.config();
  const std::size_t d = cfg.model.head_dim;
  const attn::FusedDecodeConfig dc = decode_config(cfg);
  const float scale = 1.0f / std::sqrt(static_cast<float>(d));
  std::vector<float> q(d);
  std::vector<float> out(d);
  VisitedMax vm;
  for (std::size_t layer = 0; layer < cfg.model.layers; ++layer) {
    for (std::size_t h = 0; h < cfg.model.kv_heads; ++h) {
      for (float& x : q) x = rng.uniform(-1.0f, 1.0f);
      attn::DecodeWorkStats ws;
      if (seq.cache.kind(layer, h) == kv::HeadKind::kDense) {
        const kv::HeadCache& head = seq.cache.dense_head(layer, h);
        const kv::SelectedPageTable table = sparse::select_pages_hierarchical(
            eng.dense_allocator(), head, q.data(), dc.selector);
        attn::sparse_paged_decode(eng.dense_allocator(), table, head.tokens(),
                                  q.data(), d, scale, out.data(), nullptr,
                                  &ws);
        vm.dense = std::max(vm.dense, ws.tokens_visited);
      } else {
        const kv::StreamingHeadCache& head = seq.cache.streaming_head(layer, h);
        attn::sparse_paged_decode(eng.stream_allocator(), head.index_table(),
                                  seq.cache.tokens(), q.data(), d, scale,
                                  out.data(), nullptr, &ws);
        vm.streaming = std::max(vm.streaming, ws.tokens_visited);
      }
    }
  }
  return vm;
}

/// Times the public kernel calls at the workload's shapes on a fresh engine
/// with the served configuration (no prefix cache, no tiering: the shapes,
/// not the memory layout, are what these numbers describe).
Json kernel_report(serve::EngineConfig cfg, std::size_t context) {
  cfg.enable_prefix_cache = false;
  cfg.memory = kv::MemoryConfig{};
  serve::Engine eng(cfg);
  const model::ModelConfig& m = cfg.model;
  const std::size_t h = m.hidden();
  const std::size_t kvd = m.kv_dim();
  const std::size_t d = m.head_dim;
  const std::size_t chunk =
      cfg.prefill_chunk_tokens == 0 ? context : cfg.prefill_chunk_tokens;
  num::Rng rng(7);
  Json out;

  // numeric: every per-layer num::matmul the transformer runs (wq, wk, wv,
  // wo, w_up, w_gate, w_down), over all layers, at decode rows (1: each
  // sequence's decode forward is its own 1-row pass) and at prefill-chunk
  // rows. Weights are per layer, so the working set matches the model's.
  struct Shape {
    std::size_t k, n;
  };
  const Shape shapes[] = {{h, h},   {h, kvd},  {h, kvd},
                          {h, h},   {h, m.ffn_hidden}, {h, m.ffn_hidden},
                          {m.ffn_hidden, h}};
  std::vector<num::Tensor> weights;
  for (std::size_t l = 0; l < m.layers; ++l) {
    for (const Shape& s : shapes) weights.push_back(random_tensor(s.k, s.n, rng));
  }
  const auto linear_ms = [&](std::size_t rows, std::size_t reps) {
    num::Tensor a = random_tensor(rows, std::max(h, m.ffn_hidden), rng);
    num::Tensor c(rows, std::max(h, m.ffn_hidden));
    return time_ms(reps, [&] {
      for (const num::Tensor& w : weights) {
        num::matmul(num::ConstMatView(a.data(), rows, w.rows(), a.cols()),
                    w.view(),
                    num::MatView{c.data(), rows, w.cols(), c.cols()});
      }
    });
  };
  out.num("matmul_decode_ms", linear_ms(1, 40));
  out.num("matmul_prefill_ms", linear_ms(chunk, 3));

  // Four sequences at the workload's context; the first is prefilled chunk
  // by chunk so the visited-token bound is checked on the way up.
  VisitedMax worst;
  std::vector<std::pair<double, VisitedMax>> by_context;
  std::vector<serve::SequenceId> seqs;
  std::vector<std::int32_t> last;
  for (std::size_t i = 0; i < 4; ++i) {
    const serve::SequenceId id = eng.create_sequence();
    const std::vector<std::int32_t> prompt = random_prompt(context, m.vocab, rng);
    eng.begin_prefill(id, prompt.size());
    for (std::size_t pos = 0; pos < prompt.size(); pos += chunk) {
      const std::size_t n = std::min(chunk, prompt.size() - pos);
      eng.prefill_chunk(id, std::span<const std::int32_t>(prompt).subspan(pos, n));
      if (i == 0 && (pos + n) % kBoundEvery == 0) {
        const VisitedMax vm = visited_per_head(eng, eng.sequence(id), rng);
        worst.dense = std::max(worst.dense, vm.dense);
        worst.streaming = std::max(worst.streaming, vm.streaming);
        by_context.emplace_back(static_cast<double>(pos + n), vm);
      }
    }
    last.push_back(eng.finish_prefill(id));
    seqs.push_back(id);
  }
  if (!by_context.empty()) {
    std::vector<double> ctx;
    std::vector<double> dense;
    std::vector<double> stream;
    for (const auto& [c, vm] : by_context) {
      ctx.push_back(c);
      dense.push_back(static_cast<double>(vm.dense));
      stream.push_back(static_cast<double>(vm.streaming));
    }
    Json bound;
    bound.num("dense_max_tokens", static_cast<double>(worst.dense))
        .num("streaming_max_tokens", static_cast<double>(worst.streaming))
        .num("dense_limit", static_cast<double>(cfg.selector.token_budget +
                                                cfg.dense_pages.page_size))
        .num("streaming_limit",
             static_cast<double>(cfg.streaming.sink_tokens +
                                 cfg.streaming.local_tokens +
                                 cfg.dense_pages.page_size))
        .arr("contexts", ctx)
        .arr("dense_tokens", dense)
        .arr("streaming_tokens", stream);
    out.obj("bound", bound);
  }

  // Engine::decode_batch at batch 1 and batch 4 (tokens fed back, so the
  // contexts grow by a few tokens over the repetitions).
  const auto decode_ms = [&](std::size_t batch, std::size_t reps) {
    return time_ms(reps, [&] {
      const std::vector<std::int32_t> next = eng.decode_batch(
          std::span<const serve::SequenceId>(seqs.data(), batch),
          std::span<const std::int32_t>(last.data(), batch));
      std::copy(next.begin(), next.end(), last.begin());
    });
  };
  decode_ms(4, 2);  // warm-up
  out.num("decode_step_ms_b1", decode_ms(1, 16));
  out.num("decode_step_ms_b4", decode_ms(4, 8));

  // attn::fused_sparse_decode over every layer of sequence 0, per query head.
  {
    serve::Sequence& seq = eng.sequence(seqs[0]);
    const attn::FusedDecodeConfig dc = decode_config(cfg);
    num::Tensor q = random_tensor(m.q_heads, d, rng);
    num::Tensor o(m.q_heads, d);
    std::size_t step = seq.decode_step;
    const double ms = time_ms(16, [&] {
      for (std::size_t layer = 0; layer < m.layers; ++layer) {
        attn::fused_sparse_decode(eng.dense_allocator(), eng.stream_allocator(),
                                  seq.cache, layer, q.view(), m.group_size(),
                                  &seq.selector, step, dc, o.view());
      }
      ++step;
    });
    out.num("decode_us_per_head",
            ms * 1e3 / static_cast<double>(m.layers * m.q_heads));

    // sparse::select_pages_hierarchical on the first dense head.
    for (std::size_t i = 0; i < m.layers * m.kv_heads; ++i) {
      const std::size_t layer = i / m.kv_heads;
      const std::size_t kvh = i % m.kv_heads;
      if (seq.cache.kind(layer, kvh) != kv::HeadKind::kDense) continue;
      const kv::HeadCache& head = seq.cache.dense_head(layer, kvh);
      std::vector<float> qv(d);
      for (float& x : qv) x = rng.uniform(-1.0f, 1.0f);
      std::size_t selected = 0;
      out.num("select_us", 1e3 * time_ms(32, [&] {
                selected = sparse::select_pages_hierarchical(
                               eng.dense_allocator(), head, qv.data(),
                               dc.selector)
                               .size();
              }));
      out.num("select_pages", static_cast<double>(selected));
      break;
    }
  }
  for (const serve::SequenceId id : seqs) eng.release_sequence(id);

  // attn::fused_chunked_prefill: one chunk over a history of
  // context - chunk tokens, summed over layers. The chunk's K/V is written
  // back first, as Engine::forward_prefill does.
  {
    const std::size_t history = context > chunk ? context - chunk : 0;
    const std::size_t rows = std::min(chunk, context);
    const serve::SequenceId id = eng.create_sequence();
    eng.begin_prefill(id, history + rows);
    const std::vector<std::int32_t> prompt = random_prompt(history, m.vocab, rng);
    for (std::size_t pos = 0; pos < history; pos += chunk) {
      const std::size_t n = std::min(chunk, history - pos);
      eng.prefill_chunk(id, std::span<const std::int32_t>(prompt).subspan(pos, n));
    }
    serve::Sequence& seq = eng.sequence(id);
    num::Tensor q = random_tensor(rows, h, rng);
    num::Tensor k = random_tensor(rows, kvd, rng);
    num::Tensor v = random_tensor(rows, kvd, rng);
    num::Tensor o(rows, h);
    const attn::FusedPrefillConfig pc = prefill_config(cfg, history + rows);
    double total = 0.0;
    for (std::size_t layer = 0; layer < m.layers; ++layer) {
      for (std::size_t t = 0; t < rows; ++t) {
        for (std::size_t kvh = 0; kvh < m.kv_heads; ++kvh) {
          seq.cache.append_roundtrip(eng.dense_allocator(),
                                     eng.stream_allocator(), layer, kvh,
                                     k.row(t) + kvh * d, v.row(t) + kvh * d);
        }
      }
      total += time_ms(3, [&] {
        attn::fused_chunked_prefill(eng.dense_allocator(),
                                    eng.stream_allocator(), seq.cache, layer,
                                    q.view(), k.view(), v.view(), d, pc,
                                    o.view());
      });
      seq.cache.evict_stale(eng.stream_allocator(), layer);
    }
    out.num("prefill_chunk_ms", total);
    eng.release_sequence(id);
  }
  return out;
}

Json engine_report(const serve::Engine& e) {
  const serve::EngineStats& s = e.stats();
  const kv::TierStats t = e.tier_stats();
  Json out;
  out.num("prefill_tokens", static_cast<double>(s.prefill_tokens))
      .num("decode_steps", static_cast<double>(s.decode_steps))
      .num("decode_sparse_steps", static_cast<double>(s.decode_sparse_steps))
      .num("pages_visited", static_cast<double>(s.pages_visited))
      .num("tokens_visited", static_cast<double>(s.tokens_visited))
      .num("selector_runs", static_cast<double>(s.selector_runs))
      .num("selector_reuses", static_cast<double>(s.selector_reuses))
      .num("prefix_tokens_reused", static_cast<double>(s.prefix_tokens_reused))
      .num("prefix_cow_copies", static_cast<double>(s.prefix_cow_copies))
      .num("prefix_evictions", static_cast<double>(s.prefix_evictions))
      .num("tier_demotions", static_cast<double>(t.demotions))
      .num("tier_promotions", static_cast<double>(t.promotions))
      .num("tier_prefetch_promotions",
           static_cast<double>(t.prefetch_promotions))
      .num("layers", static_cast<double>(e.config().model.layers))
      .num("q_heads", static_cast<double>(e.config().model.q_heads))
      .num("kv_heads", static_cast<double>(e.config().model.kv_heads));
  return out;
}

Json scheduler_report(const serve::Scheduler& sched,
                      const obs::MetricsRegistry& reg) {
  const serve::SchedulerStats& s = sched.scheduler_stats();
  // Both histograms are registered in main(), before the Scheduler.
  const obs::Histogram& ttft = *reg.find_histogram("lserve_request_ttft_seconds");
  const obs::Histogram& queue_wait =
      *reg.find_histogram("lserve_request_queue_wait_seconds");
  const obs::Counter* stalls =
      reg.find_counter("lserve_sse_backpressure_stalls_total");
  Json out;
  out.num("steps", static_cast<double>(s.steps))
      .num("preemptions", static_cast<double>(s.preemptions))
      .num("deferred_admissions", static_cast<double>(s.deferred_admissions))
      .num("ttft_count", static_cast<double>(ttft.count()))
      .num("ttft_mean_s", ttft.mean())
      .num("queue_wait_p50_s", queue_wait.quantile(0.5))
      .num("sse_stalls",
           stalls == nullptr ? 0.0 : static_cast<double>(stalls->value()));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::size_t v = 0;
    if (parse_size(argv[i], "--port", v)) {
      opt.port = static_cast<std::uint16_t>(v);
    } else if (std::strncmp(argv[i], "--model=", 8) == 0) {
      opt.model = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--report=", 9) == 0) {
      opt.report = argv[i] + 9;
    } else if (opt.memory.parse_flag(argv[i]) ||
               parse_size(argv[i], "--trace-steps", opt.trace_steps) ||
               parse_size(argv[i], "--kernel-context", opt.kernel_context)) {
      // parsed in the condition.
    } else {
      std::fprintf(stderr, "perfbench_traced: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  model::ModelConfig mc;
  if (opt.model == "tiny") {
    mc = model::tiny();
  } else if (opt.model == "small") {
    mc = model::small();
  } else {
    std::fprintf(stderr, "perfbench_traced: unknown --model=%s\n",
                 opt.model.c_str());
    return 2;
  }
  if (opt.report.empty() || opt.kernel_context == 0) {
    std::fprintf(stderr, "perfbench_traced: --report and --kernel-context "
                         "are required\n");
    return 2;
  }

  serve::EngineConfig ec = baselines::lserve_config(mc);
  ec.prefill_chunk_tokens = opt.prefill_chunk;
  ec.memory = opt.memory;
  if (opt.memory.prefix_cache_pages > 0) ec.enable_prefix_cache = true;
  serve::Engine engine(ec);

  obs::MetricsRegistry metrics;
  // Registered before the Scheduler, which then gets these entries back:
  // buckets 1% wide instead of the default ladder's 58%, so the report's
  // queue-wait p50 is read to within 1%.
  const std::vector<double> fine = obs::exponential_buckets(1e-6, 1.01, 2100);
  metrics.histogram("lserve_request_queue_wait_seconds",
                    "Wall time from submit() to first admission into the batch.",
                    fine);
  metrics.histogram("lserve_request_ttft_seconds",
                    "Wall time from submit() to the first generated token.",
                    fine);
  obs::StepTracer tracer(opt.trace_steps == 0 ? 1 : opt.trace_steps);

  serve::SchedulerConfig sc;
  sc.max_batch = opt.max_batch;
  sc.decode_threads = opt.decode_threads;
  sc.memory = opt.memory;
  sc.metrics = &metrics;
  sc.tracer = &tracer;
  serve::Scheduler sched(engine, sc);

  net::ServerConfig server_cfg;
  server_cfg.port = opt.port;
  server_cfg.max_live = opt.max_live;
  server_cfg.metrics = &metrics;
  server_cfg.tracer = &tracer;
  net::HttpServer server(sched, server_cfg);
  const std::uint16_t port = server.start();
  GaugeSampler sampler(metrics);
  std::printf("perfbench_traced: model=%s listening on http://127.0.0.1:%u\n",
              opt.model.c_str(), static_cast<unsigned>(port));
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0) {
    struct timespec ts{0, 50 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.stop();
  sampler.stop();

  Json peaks;
  peaks.num("pages_in_use", sampler.peak_pages())
      .num("cold_bytes", sampler.peak_cold_bytes());
  const Clock::time_point t0 = Clock::now();
  Json report;
  report.obj("engine", engine_report(engine))
      .obj("scheduler", scheduler_report(sched, metrics))
      .obj("trace", trace_report(tracer))
      .obj("peaks", peaks)
      .obj("kernels", kernel_report(ec, opt.kernel_context));
  report.num("kernel_seconds", ms_since(t0) * 1e-3);

  std::FILE* f = std::fopen(opt.report.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench_traced: cannot write %s\n",
                 opt.report.c_str());
    return 1;
  }
  const std::string text = report.str();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok ? 0 : 1;
}
