"""The benchmark's two traffic mixes.

Each workload fixes the server's traffic flags, the number of closed-loop
clients and the request shapes. The seed only picks token ids: prompt
lengths, reply lengths and the order in which each client sends its
requests are the same for every seed, so run-to-run spread comes from the
machine and not from a different mix of lengths.
"""

import random
from dataclasses import dataclass

VOCAB = {"tiny": 256, "small": 1024}


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    flags: tuple  # server flags besides --port and --model
    clients: int
    max_new_tokens: int
    kernel_context: int  # context length the traced run times kernels at
    cycle_rounds: int  # lockstep rounds that repeat the same request mix

    @property
    def vocab(self):
        return VOCAB[self.model]

    def make_clients(self, seed):
        return SCRIPTS[self.name](self, seed)


def _tokens(rng, n, vocab):
    return tuple(rng.randrange(vocab) for _ in range(n))


class RepeatClient:
    """Sends the same prompt every time."""

    def __init__(self, prompt, max_new_tokens):
        self.prompt = prompt
        self.max_new_tokens = max_new_tokens

    def next_request(self, last_reply):
        return self.prompt, self.max_new_tokens


class ConversationClient:
    """Multi-turn chat: every conversation opens with the shared system
    prompt; each turn resends the whole history, the served reply and a
    fresh user message. After ``turns`` turns a new conversation starts."""

    def __init__(self, system, rng, vocab, user_tokens, turns, max_new_tokens):
        self.system = system
        self.rng = rng
        self.vocab = vocab
        self.user_tokens = user_tokens
        self.turns = turns
        self.max_new_tokens = max_new_tokens
        self.history = None
        self.turn = 0

    def next_request(self, last_reply):
        if self.history is None or self.turn == self.turns:
            self.history, self.turn = self.system, 0
        else:
            self.history = self.history + tuple(last_reply)
        self.history = self.history + _tokens(self.rng, self.user_tokens, self.vocab)
        self.turn += 1
        return self.history, self.max_new_tokens


# long_context: one 6144-token prompt per client, resent, 128-token replies.
def _long_context(w, seed):
    rng = random.Random(f"long_context/{seed}")
    prompts = [_tokens(rng, 6144, w.vocab) for _ in range(w.clients)]
    return [RepeatClient(p, w.max_new_tokens) for p in prompts]


# multi_turn: a 256-token system prompt shared by every conversation,
# 64-token user messages, 32-token replies, four turns per conversation
# (prompts of 320, 416, 512 and 608 tokens).
TURNS = 4


def _multi_turn(w, seed):
    rng = random.Random(f"multi_turn/{seed}")
    system = _tokens(rng, 256, w.vocab)
    return [ConversationClient(system, random.Random(f"multi_turn/{seed}/{i}"),
                               w.vocab, 64, TURNS, w.max_new_tokens)
            for i in range(w.clients)]


SCRIPTS = {"long_context": _long_context, "multi_turn": _multi_turn}

WORKLOADS = {
    "long_context": Workload("long_context", "tiny", (), 2, 128,
                             kernel_context=6144, cycle_rounds=1),
    "multi_turn": Workload("multi_turn", "small",
                           ("--prefix-cache-pages=512", "--hot-pages=192"), 4, 32,
                           kernel_context=512, cycle_rounds=TURNS),
}
