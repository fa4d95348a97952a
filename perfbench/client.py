"""Loopback HTTP client for lserve_serve: one streamed generation per
connection, timed at the client, plus plain GETs for /healthz and /metrics."""

import asyncio
import json
import socket
import time
from dataclasses import dataclass, field

from sse import SseReader, parse_token

HOST = "127.0.0.1"


@dataclass
class Reply:
    """One /v1/generate exchange as the client saw it."""

    prompt: tuple
    max_new_tokens: int
    sent: float = 0.0  # time.perf_counter() when the request was written.
    http_status: int = 0
    tokens: list = field(default_factory=list)
    indices: list = field(default_factory=list)
    token_times: list = field(default_factory=list)
    done: dict = None  # payload of the terminal `done` event.
    error: str = ""

    @property
    def finished(self):
        return (self.error == "" and self.http_status == 200
                and self.done is not None and self.done.get("status") == "FINISHED")


def _request_bytes(method, path, body=b""):
    head = (f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n")
    return head.encode("ascii") + body


async def generate(port, prompt, max_new_tokens):
    """Streams one generation; every `token` frame is stamped on arrival."""
    reply = Reply(prompt=tuple(prompt), max_new_tokens=max_new_tokens)
    body = json.dumps({"prompt": list(prompt),
                       "max_new_tokens": max_new_tokens}).encode("ascii")
    reader = SseReader()
    try:
        r, w = await asyncio.open_connection(HOST, port)
    except OSError as e:
        reply.error = f"connect: {e}"
        return reply
    try:
        reply.sent = time.perf_counter()
        w.write(_request_bytes("POST", "/v1/generate", body))
        await w.drain()
        while True:
            data = await r.read(65536)
            if not data:
                break
            now = time.perf_counter()
            for event, payload in reader.feed(data):
                if event == "token":
                    index, token = parse_token(payload)
                    reply.indices.append(index)
                    reply.tokens.append(token)
                    reply.token_times.append(now)
                elif event == "done":
                    reply.done = json.loads(payload)
        reply.http_status = reader.status or 0
        if reply.http_status != 200:
            reply.error = reader.leftover().decode("utf-8", "replace")[:200]
    except (OSError, ValueError) as e:
        reply.error = f"stream: {e}"
    finally:
        w.close()
        try:
            await w.wait_closed()
        except OSError:
            pass
    return reply


def http_get(port, path, timeout=5.0):
    """(status, body text) of a blocking GET, or (0, error) on failure."""
    try:
        with socket.create_connection((HOST, port), timeout=timeout) as s:
            s.sendall(_request_bytes("GET", path))
            chunks = []
            while True:
                data = s.recv(65536)
                if not data:
                    break
                chunks.append(data)
    except OSError as e:
        return 0, str(e)
    raw = b"".join(chunks)
    head, _, body = raw.partition(b"\r\n\r\n")
    parts = head.split(b" ", 2)
    status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
    return status, body.decode("utf-8", "replace")
