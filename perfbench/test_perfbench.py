"""Self-tests of the benchmark's own code (no server needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

from checks import counter_errors, reference_mismatches, reply_errors, served_outputs
from client import Reply
from run import end_to_end
from sse import SseReader, parse_token
from stats import parse_prometheus, percentile
from workloads import WORKLOADS


class PercentileTest(unittest.TestCase):
    def test_hand_computed(self):
        # rank = p/100 * (n - 1), interpolated between neighbours.
        self.assertEqual(percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(percentile([1, 2, 3, 4], 25), 1.75)
        self.assertEqual(percentile([1, 2, 3, 4], 0), 1)
        self.assertEqual(percentile([1, 2, 3, 4], 100), 4)
        self.assertAlmostEqual(percentile(list(range(1, 11)), 90), 9.1)
        self.assertAlmostEqual(percentile(list(range(1, 101)), 99), 99.01)
        self.assertEqual(percentile([7], 99), 7)

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            percentile([], 50)
        with self.assertRaises(ValueError):
            percentile([1], 101)

    def test_parse_prometheus(self):
        series = parse_prometheus('# HELP c help\n# TYPE c counter\nc 5\n'
                                  'h_bucket{le="+Inf"} 2\ng{route="dense"} 1.5\n')
        self.assertEqual(series, {"c": 5.0, 'h_bucket{le="+Inf"}': 2.0,
                                  'g{route="dense"}': 1.5})


STREAM = (b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n"
          b"Connection: close\r\n\r\n"
          b'event: token\ndata: {"index":0,"token":17}\n\n'
          b'event: token\ndata: {"index":1,"token":5}\n\n'
          b'event: done\ndata: {"status":"FINISHED","request_id":3,"tokens":2}\n\n')


class SseReaderTest(unittest.TestCase):
    def frames(self, pieces):
        reader = SseReader()
        out = []
        for p in pieces:
            out += reader.feed(p)
        return reader, out

    def test_one_read(self):
        reader, frames = self.frames([STREAM])
        self.assertEqual(reader.status, 200)
        self.assertEqual([e for e, _ in frames], ["token", "token", "done"])
        self.assertEqual(parse_token(frames[1][1]), (1, 5))

    def test_split_at_every_byte(self):
        _, whole = self.frames([STREAM])
        reader, split = self.frames([STREAM[i:i + 1] for i in range(len(STREAM))])
        self.assertEqual(split, whole)
        self.assertEqual(reader.status, 200)

    def test_split_inside_head_and_frame_separator(self):
        cut_head = STREAM.index(b"\r\n\r\n") + 2
        cut_sep = STREAM.index(b"\n\n", cut_head + 2) + 1
        _, whole = self.frames([STREAM])
        _, split = self.frames([STREAM[:cut_head], STREAM[cut_head:cut_sep],
                                STREAM[cut_sep:]])
        self.assertEqual(split, whole)

    def test_frame_is_yielded_only_when_complete(self):
        reader = SseReader()
        head_end = STREAM.index(b"\r\n\r\n") + 4
        self.assertEqual(reader.feed(STREAM[:head_end + 10]), [])
        self.assertEqual(len(reader.feed(STREAM[head_end + 10:])), 3)

    def test_error_response(self):
        body = b'{"error":{"code":"overloaded","message":"retry"}}'
        reader = SseReader()
        frames = reader.feed(b"HTTP/1.1 503 Service Unavailable\r\n"
                             b"Content-Length: 49\r\n\r\n" + body)
        self.assertEqual(reader.status, 503)
        self.assertEqual(frames, [])
        self.assertEqual(reader.leftover(), body)


def make_reply(prompt, tokens, max_new=None):
    r = Reply(prompt=tuple(prompt), max_new_tokens=len(tokens) if max_new is None else max_new)
    r.http_status = 200
    r.tokens = list(tokens)
    r.indices = list(range(len(tokens)))
    r.token_times = [float(i) for i in range(len(tokens))]
    r.done = {"status": "FINISHED", "tokens": len(tokens)}
    return r


class OutputCheckTest(unittest.TestCase):
    def test_good_reply_passes(self):
        self.assertEqual(reply_errors(make_reply([1, 2], [3, 4, 5]), vocab=8), [])

    def test_reply_defects_fail(self):
        short = make_reply([1], [3, 4], max_new=3)
        self.assertTrue(reply_errors(short, vocab=8))
        bad_index = make_reply([1], [3, 4])
        bad_index.indices = [0, 2]
        self.assertTrue(reply_errors(bad_index, vocab=8))
        out_of_vocab = make_reply([1], [3, 8])
        self.assertTrue(reply_errors(out_of_vocab, vocab=8))
        cancelled = make_reply([1], [3, 4])
        cancelled.done = {"status": "CANCELLED", "tokens": 2}
        self.assertTrue(reply_errors(cancelled, vocab=8))

    def test_reference_with_one_token_changed_fails(self):
        replies = [make_reply([1, 2, 3], [5, 6, 7, 0]), make_reply([4, 5], [1, 1, 2, 3])]
        served, unstable = served_outputs(replies)
        self.assertEqual(unstable, set())
        reference = {k: list(v) for k, v in served.items()}
        self.assertEqual(reference_mismatches(served, reference), [])
        key = ((4, 5), 4)
        reference[key][2] += 1
        self.assertEqual(reference_mismatches(served, reference), [key])

    def test_same_prompt_different_tokens_is_unstable(self):
        _, unstable = served_outputs([make_reply([1], [2, 3]), make_reply([1], [2, 4])])
        self.assertEqual(unstable, {((1,), 2)})

    def test_counter_conservation(self):
        ok = {"lserve_requests_submitted_total": 5.0, "lserve_requests_finished_total": 5.0,
              "lserve_kv_pages_in_use": 12.0, "lserve_prefix_cache_pages_held": 12.0}
        self.assertEqual(counter_errors(ok, submitted=5, finished=5), [])
        self.assertTrue(counter_errors(ok, submitted=6, finished=5))
        self.assertTrue(counter_errors(dict(ok, lserve_kv_pages_in_use=13.0), 5, 5))


def timed_reply(sent, ttft_s, tokens=2, gap_s=0.01):
    r = make_reply([1], [0] * tokens)
    r.sent = sent
    r.token_times = [sent + ttft_s + i * gap_s for i in range(tokens)]
    return r


class EndToEndTest(unittest.TestCase):
    def test_fast_side_quartile_over_cycles(self):
        # Three cycles of two requests, each reply two tokens 10 ms apart
        # (20 ms in cycle 3), so a cycle's p99 gap is its largest gap.
        # The fast-side quartile of three cycles lies halfway between the
        # fastest and the middle one (rank 0.25 * 2 = 0.5).
        # TTFT medians: 150, 130, 400 ms -> 140. p99 gaps: 10, 10, 20 -> 10.
        # Rates, 4 tokens per cycle: 4/2, 4/1, 4/4 tok/s; the 75th
        # percentile of 1, 2, 4 is 3.
        cycles = [([timed_reply(0.0, 0.1), timed_reply(0.0, 0.2)], 0.0, 2.0),
                  ([timed_reply(2.0, 0.12), timed_reply(2.0, 0.14)], 2.0, 3.0),
                  ([timed_reply(3.0, 0.3, gap_s=0.02), timed_reply(3.0, 0.5, gap_s=0.02)], 3.0, 7.0)]
        metrics, extra = end_to_end(cycles, setup_s=0.5, rss_mb=10.0)
        self.assertAlmostEqual(metrics["ttft_p50_ms"][0], 140.0)
        self.assertAlmostEqual(metrics["itl_p99_ms"][0], 10.0)
        self.assertAlmostEqual(metrics["output_tok_per_s"][0], 3.0)
        self.assertAlmostEqual(metrics["setup_s"][0], 0.5)
        self.assertEqual((extra["requests"], extra["cycles"], extra["itl_gaps"]), (6, 3, 6))

    def test_unfinished_reply_is_left_out_of_latencies(self):
        failed = timed_reply(0.0, 5.0)
        failed.done = {"status": "CANCELLED", "tokens": 2}
        cycles = [([timed_reply(0.0, 0.1), timed_reply(0.0, 0.3), failed], 0.0, 1.0)]
        metrics, extra = end_to_end(cycles, setup_s=0.5, rss_mb=10.0)
        self.assertAlmostEqual(metrics["ttft_p50_ms"][0], 200.0)
        self.assertEqual(extra["requests"], 2)


class WorkloadTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for w in WORKLOADS.values():
            a = [c.next_request((7,) * w.max_new_tokens) for c in w.make_clients(3)]
            b = [c.next_request((7,) * w.max_new_tokens) for c in w.make_clients(3)]
            c = [c.next_request((7,) * w.max_new_tokens) for c in w.make_clients(4)]
            self.assertEqual(a, b)
            self.assertNotEqual(a, c)
            self.assertEqual([len(p) for p, _ in a], [len(p) for p, _ in c])

    def test_multi_turn_resends_history(self):
        w = WORKLOADS["multi_turn"]
        client = w.make_clients(1)[0]
        reply = tuple(range(w.max_new_tokens))
        p1, _ = client.next_request(())
        p2, _ = client.next_request(reply)
        self.assertEqual(p2[:len(p1)], p1)
        self.assertEqual(p2[len(p1):len(p1) + len(reply)], reply)
        lengths = [len(p1), len(p2)] + [len(client.next_request(reply)[0]) for _ in range(3)]
        self.assertEqual(lengths, [320, 416, 512, 608, 320])
        self.assertEqual(w.cycle_rounds, 4)


if __name__ == "__main__":
    unittest.main()
