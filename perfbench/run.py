#!/usr/bin/env python3
"""Serving benchmark for lserve_serve.

    python3 perfbench/run.py --workload long_context --seed 1 --seconds 40 --trace 0

Run from the repository root. It builds the repository's lserve_serve (and,
for --trace 1, the benchmark's traced server) under .bench_build/, starts
the server with the workload's traffic flags, waits for GET /healthz and
drives the workload's clients in lockstep rounds: one untimed warm-up
cycle, then whole cycles for --seconds. It checks every reply, the
server's request and page counters and, against a second server that
serves one request at a time with monolithic prefill and no prefix cache
or tiering, the tokens of the served prompts. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"};
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md).
"""

import argparse
import asyncio
import gc
import json
import os
import random
import select
import signal
import subprocess
import sys
import time

from checks import counter_errors, reference_mismatches, reply_errors, served_outputs
from client import generate, http_get
from stats import median, parse_prometheus, percentile
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
RUN_DIR = os.path.join(BUILD_ROOT, "run")
SERVE_BIN = os.path.join(CMAKE_DIR, "lserve", "src", "lserve_serve")
TRACED_BIN = os.path.join(CMAKE_DIR, "perfbench_traced")

# A decode_batch span shorter than this ran an empty batch (a step that
# only prefilled); non-empty batches take a millisecond or more.
EMPTY_DECODE_BATCH_MS = 0.05
# The percentile over a run's cycles that its latencies are reported at
# (100 minus it for rates): the quartile on the fast side.
FAST_SIDE = 25


class BenchError(Exception):
    pass


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no src/CMakeLists.txt under {ROOT}: run from a "
                         "checkout of the repository")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_ROOT, "build.log"), "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", CMAKE_DIR])
        steps.append(["cmake", "--build", CMAKE_DIR, "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(see {out.name})")


class Server:
    """One server process on an ephemeral port. ``setup_s`` is the time
    from launch until GET /healthz answered 200."""

    def __init__(self, argv, name, timeout=60.0):
        tmp = os.path.join(RUN_DIR, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)  # the cold store's spill file
        self.err = open(os.path.join(RUN_DIR, f"{name}.stderr"), "w")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv + ["--port=0"], stdout=subprocess.PIPE,
                                     stderr=self.err, cwd=RUN_DIR, env=env)
        try:
            self.port = self._read_port(t0 + timeout)
            while http_get(self.port, "/healthz", timeout=1.0)[0] != 200:
                if time.perf_counter() > t0 + timeout:
                    raise BenchError(f"{name}: /healthz never answered 200")
                time.sleep(0.002)
            self.setup_s = time.perf_counter() - t0
        except BaseException:
            self.kill()
            raise

    def _read_port(self, deadline):
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
                raise BenchError("server did not start listening in time")
            ch = os.read(self.proc.stdout.fileno(), 1)
            if not ch:
                raise BenchError(f"server exited with {self.proc.wait()} "
                                 f"before listening (see {self.err.name})")
            line += ch
        text = line.decode()
        if "listening on http://127.0.0.1:" not in text:
            raise BenchError(f"unexpected server banner: {text.strip()}")
        return int(text.rsplit(":", 1)[1])

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM in the server's /proc status")

    def stop(self, timeout):
        """SIGTERM, then wait; the exit code (SIGKILL after ``timeout``)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"server did not exit within {timeout} s of SIGTERM")
        self.proc.stdout.close()
        self.err.close()
        return code

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


async def closed_loop(port, clients, seconds, cycle_rounds):
    """Lockstep rounds: every client sends one request, and the next round
    starts when all of the round's replies have ended. Rounds run in cycles
    of ``cycle_rounds``, so every cycle holds the same mix of requests. The
    first cycle warms the server up and is not timed; then cycles start
    until the window closes, and the last one runs to completion. Returns
    the warm-up replies and, per timed cycle, (replies, start, end)."""
    last = [()] * len(clients)

    async def one_cycle():
        nonlocal last
        replies = []
        t0 = time.perf_counter()
        for _ in range(cycle_rounds):
            requests = [c.next_request(prev) for c, prev in zip(clients, last)]
            rr = await asyncio.wait_for(
                asyncio.gather(*(generate(port, p, n) for p, n in requests)), timeout=120)
            replies += rr
            last = [r.tokens for r in rr]
        return replies, t0, time.perf_counter()

    warmup, _, _ = await one_cycle()
    cycles = []
    t_start = time.perf_counter()
    while time.perf_counter() < t_start + seconds:
        cycles.append(await one_cycle())
    return warmup, cycles


def serve_window(server, workload, seed, seconds):
    gc.disable()
    try:
        return asyncio.run(closed_loop(server.port, workload.make_clients(seed),
                                       seconds, workload.cycle_rounds))
    finally:
        gc.enable()


def settled_metrics(port, timeout=2.0):
    """/metrics once the page gauges agree, or after ``timeout``. The
    scheduler publishes its gauges at the end of a step, after the step's
    on_done callbacks have already streamed the last `done` event."""
    deadline = time.perf_counter() + timeout
    while True:
        status, text = http_get(port, "/metrics")
        if status != 200:
            raise BenchError(f"GET /metrics answered {status}")
        series = parse_prometheus(text)
        if (series.get("lserve_kv_pages_in_use") == series.get("lserve_prefix_cache_pages_held")
                or time.perf_counter() > deadline):
            return text
        time.sleep(0.01)


def reference_keys(served, seed):
    """A seeded sample of the distinct prompts served, one of each prompt
    length."""
    keys = sorted(served, key=lambda k: (len(k[0]), k))
    rng = random.Random(f"reference/{seed}")
    by_len = {}
    for k in keys:
        by_len.setdefault(len(k[0]), []).append(k)
    return [rng.choice(group) for _, group in sorted(by_len.items())]


def solo_reference(workload, keys):
    """Tokens a solo server gives for each (prompt, max_new_tokens) key."""
    ref = Server([SERVE_BIN, f"--model={workload.model}", "--prefill-chunk=0"],
                 "reference")
    try:
        out = {}
        for prompt, max_new in keys:
            reply = asyncio.run(generate(ref.port, prompt, max_new))
            if reply_errors(reply, workload.vocab):
                raise BenchError("reference server failed: "
                                 + "; ".join(reply_errors(reply, workload.vocab)))
            out[(prompt, max_new)] = reply.tokens
    finally:
        ref.stop(timeout=30)
    return out


def ttft_ms(reply):
    return (reply.token_times[0] - reply.sent) * 1e3


def end_to_end(cycles, setup_s, rss_mb):
    """The end-to-end metrics of one window of timed cycles.

    Each timing is taken per cycle first: the cycle's median TTFT, the 99th
    percentile of its inter-token gaps, and its tokens over its duration.
    The run reports the quartile of the cycles on the fast side: the 25th
    percentile of the latencies and the 75th of the rates. The host has
    spells of contention that slow every process for tens of seconds; a
    median over cycles moves when a spell covers half of the run, this
    quartile only when it covers three quarters. Every cycle holds the same
    mix of requests, so none of this depends on where the window closes."""
    def measured(rr):
        return [r for r in rr if r.finished and r.token_times]

    def gaps_ms(rr):
        return [(b - a) * 1e3 for r in measured(rr)
                for a, b in zip(r.token_times, r.token_times[1:])]

    timed = [(rr, t0, t1) for rr, t0, t1 in cycles if len(gaps_ms(rr)) >= 2]
    if not timed:
        raise BenchError("too few finished requests to measure")
    done = [r for rr, _, _ in cycles for r in measured(rr)]
    gaps = [g for rr, _, _ in cycles for g in gaps_ms(rr)]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ttft_p50_ms": (percentile([median([ttft_ms(r) for r in measured(rr)])
                                    for rr, _, _ in timed], FAST_SIDE), "ms"),
        "itl_p99_ms": (percentile([percentile(gaps_ms(rr), 99) for rr, _, _ in timed],
                                  FAST_SIDE), "ms"),
        "output_tok_per_s": (percentile([sum(len(r.token_times) for r in rr) / (t1 - t0)
                                         for rr, t0, t1 in timed], 100 - FAST_SIDE),
                             "tok/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # The median gap is the decode step time, which moves most with the
    # host's memory speed: printed, but not one of the benchmark's metrics.
    extra = {"requests": len(done), "cycles": len(cycles), "itl_gaps": len(gaps),
             "itl_p50_ms": round(percentile(gaps, 50), 3)}
    if len(done) >= 100:  # a p90 needs ten samples beyond it
        extra["ttft_p90_ms"] = round(percentile([ttft_ms(r) for r in done], 90), 3)
    return metrics, extra


def per_layer(rep, replies):
    eng, sch, tr, k = rep["engine"], rep["scheduler"], rep["trace"], rep["kernels"]
    spans = tr["span_total_ms"]
    heads = eng["layers"] * eng["q_heads"]
    steps = max(sch["steps"], 1)
    decode_steps = max(eng["decode_steps"], 1)
    busy = sum(1 for ms in tr["decode_batch_ms"] if ms >= EMPTY_DECODE_BATCH_MS)
    prompt_tokens = sum(len(r.prompt) for r in replies)
    decode_ms_per_seq = spans.get("decode_batch", 0.0) / decode_steps
    selector_calls = eng["selector_runs"] + eng["selector_reuses"]

    def ratio(a, b):
        return a / b if b else 0.0

    # The server's TTFT histogram holds every request that produced a token,
    # the warm-up cycle's too; its sum is exact, so the mean difference is too.
    streamed = [r for r in replies if r.token_times]
    client_ttft_mean_ms = sum(ttft_ms(r) for r in streamed) / len(streamed)
    m = {
        "net.ttft_overhead_ms": (client_ttft_mean_ms - sch["ttft_mean_s"] * 1e3, "ms"),
        "net.sse_stalls": (sch["sse_stalls"], "count"),
        "scheduler.queue_wait_ms_p50": (sch["queue_wait_p50_s"] * 1e3, "ms"),
        "scheduler.step_ms_p50": (median(tr["step_ms"]) if tr["step_ms"] else 0.0, "ms"),
        "scheduler.decode_batch_mean": (ratio(eng["decode_steps"], busy), "seq"),
        "scheduler.admit_ms_total": (spans.get("admit", 0.0), "ms"),
        "scheduler.deliver_ms_total": (spans.get("deliver", 0.0), "ms"),
        "scheduler.retire_ms_total": (spans.get("retire", 0.0), "ms"),
        "scheduler.prefix_attach_ms_total": (spans.get("prefix_attach", 0.0), "ms"),
        "scheduler.prefix_insert_ms_total": (spans.get("prefix_insert", 0.0), "ms"),
        "scheduler.preemptions": (sch["preemptions"], "count"),
        "scheduler.deferred_admissions": (sch["deferred_admissions"], "count"),
        "engine.prefill_us_per_token":
            (ratio(spans.get("prefill_chunk", 0.0) * 1e3, eng["prefill_tokens"]), "us"),
        "engine.decode_ms_per_seq": (decode_ms_per_seq, "ms"),
        "engine.decode_step_ms_b1": (k["decode_step_ms_b1"], "ms"),
        "engine.decode_step_ms_b4": (k["decode_step_ms_b4"], "ms"),
        "numeric.matmul_decode_ms": (k["matmul_decode_ms"], "ms"),
        "numeric.matmul_prefill_ms": (k["matmul_prefill_ms"], "ms"),
        "numeric.linear_share_decode": (ratio(k["matmul_decode_ms"], decode_ms_per_seq),
                                        "ratio"),
        "attn.prefill_chunk_ms": (k["prefill_chunk_ms"], "ms"),
        "attn.decode_us_per_head": (k["decode_us_per_head"], "us"),
        "attn.tokens_visited_per_head_step":
            (eng["tokens_visited"] / (decode_steps * heads), "tokens"),
        "attn.pages_visited_per_head_step":
            (eng["pages_visited"] / (decode_steps * heads), "pages"),
        "sparse.select_us": (k["select_us"], "us"),
        "sparse.selector_reuse_ratio": (ratio(eng["selector_reuses"], selector_calls),
                                        "ratio"),
        "sparse.sparse_step_share": (eng["decode_sparse_steps"] / decode_steps, "ratio"),
        "kv.peak_pages_in_use": (rep["peaks"]["pages_in_use"], "pages"),
        "kv.cold_bytes_peak": (rep["peaks"]["cold_bytes"], "bytes"),
        "kv.prefix_token_hit_ratio": (ratio(eng["prefix_tokens_reused"], prompt_tokens),
                                      "ratio"),
        "kv.prefix_cow_copies": (eng["prefix_cow_copies"], "count"),
        "kv.prefix_evictions": (eng["prefix_evictions"], "count"),
        "kv.tier_demotions_per_step": (eng["tier_demotions"] / steps, "1/step"),
        "kv.tier_promotions_per_step": (eng["tier_promotions"] / steps, "1/step"),
        "kv.tier_prefetch_hit_ratio":
            (ratio(eng["tier_prefetch_promotions"], eng["tier_promotions"]), "ratio"),
    }
    errs = []
    if sch["ttft_count"] != len(streamed):
        errs.append(f"server timed {sch['ttft_count']:.0f} first tokens, "
                    f"client saw {len(streamed)}")
    if tr["committed"] > tr["retained"]:
        errs.append(f"step trace wrapped: {tr['committed']} steps, "
                    f"{tr['retained']} retained")
    bound = k.get("bound")
    if bound is not None:
        if bound["dense_max_tokens"] > bound["dense_limit"]:
            errs.append(f"a dense head visited {bound['dense_max_tokens']:.0f} tokens "
                        f"in one decode step (limit {bound['dense_limit']:.0f})")
        if bound["streaming_max_tokens"] > bound["streaming_limit"]:
            errs.append(f"a streaming head visited {bound['streaming_max_tokens']:.0f} "
                        f"tokens in one decode step (limit {bound['streaming_limit']:.0f})")
    return m, errs


def run(args):
    workload = WORKLOADS[args.workload]
    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    report_path = os.path.join(RUN_DIR, "traced_report.json")
    if args.trace:
        if os.path.exists(report_path):
            os.remove(report_path)
        argv = [TRACED_BIN, f"--model={workload.model}", *workload.flags,
                f"--trace-steps={2000 * args.seconds + 20000}",
                f"--report={report_path}",
                f"--kernel-context={workload.kernel_context}"]
    else:
        argv = [SERVE_BIN, f"--model={workload.model}", *workload.flags]

    server = Server(argv, "server")
    try:
        warmup, cycles = serve_window(server, workload, args.seed, args.seconds)
        text = settled_metrics(server.port)
        rss_mb = server.peak_rss_mb()
    except BaseException:
        server.kill()
        raise
    code = server.stop(timeout=150 if args.trace else 30)
    if code != 0:
        raise BenchError(f"server exited with code {code}")

    errors = []
    replies = warmup + [r for rr, _, _ in cycles for r in rr]
    failed = [r for r in replies if not r.finished]
    for r in replies:
        if r.finished:
            errors += reply_errors(r, workload.vocab)
    errors += counter_errors(parse_prometheus(text), len(replies),
                             len(replies) - len(failed))

    served, unstable = served_outputs([r for r in replies if r.finished])
    if unstable:
        errors.append(f"{len(unstable)} prompts got different tokens on different requests")
    keys = reference_keys(served, args.seed)
    mismatched = reference_mismatches(served, solo_reference(workload, keys))
    if mismatched:
        errors.append(f"{len(mismatched)} of {len(keys)} prompts differ from the "
                      "solo reference")

    e2e, extra = end_to_end(cycles, server.setup_s, rss_mb)
    if args.trace:
        with open(report_path) as f:
            rep = json.load(f)
        metrics, layer_errs = per_layer(rep, replies)
        errors += layer_errs
        extra["traced_end_to_end"] = {k: round(v, 4) for k, (v, _) in e2e.items()}
        extra["kernel_seconds"] = round(rep["kernel_seconds"], 2)
        if "bound" in rep["kernels"]:
            extra["visited_bound"] = rep["kernels"]["bound"]
    else:
        metrics = e2e
    extra["reference_prompts"] = len(keys)
    print(json.dumps({"workload": workload.name, "seed": args.seed, **extra}))
    for e in errors:
        log(f"CHECK FAILED: {e}")
    return {
        "correct": not errors,
        "attempted": len(replies),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    try:
        result = run(args)
    except BenchError as e:
        log(f"error: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
