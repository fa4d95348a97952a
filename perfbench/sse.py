"""Incremental reader for the server's HTTP/1.1 + Server-Sent Events replies.

The server answers POST /v1/generate with a response head, then one
``event: token`` frame per generated token and a final ``event: done`` frame,
and closes the connection. TCP may split a frame across reads or coalesce
several frames into one read, so the reader buffers bytes and yields only
complete frames.
"""

import json


class SseReader:
    """Feed raw bytes; collect the response status and complete SSE frames."""

    def __init__(self):
        self._buf = b""
        self.status = None  # HTTP status code once the head has arrived.
        self.head_done = False

    def feed(self, data):
        """Appends ``data`` and returns the list of (event, data) frames
        completed by it, in order."""
        self._buf += data
        if not self.head_done:
            end = self._buf.find(b"\r\n\r\n")
            if end < 0:
                return []
            status_line = self._buf[: self._buf.find(b"\r\n")].decode("latin-1")
            parts = status_line.split(" ", 2)
            self.status = int(parts[1]) if len(parts) > 1 and parts[1].isdigit() else 0
            self._buf = self._buf[end + 4 :]
            self.head_done = True
        frames = []
        while True:
            end = self._buf.find(b"\n\n")
            if end < 0:
                return frames
            block, self._buf = self._buf[:end], self._buf[end + 2 :]
            event, payload = "message", []
            for line in block.decode("utf-8").split("\n"):
                if line.startswith("event:"):
                    event = line[6:].strip()
                elif line.startswith("data:"):
                    payload.append(line[5:].lstrip())
            frames.append((event, "\n".join(payload)))

    def leftover(self):
        """Bytes received after the last complete frame (a non-SSE body)."""
        return self._buf


def parse_token(data):
    """(index, token) of a ``token`` frame's JSON payload."""
    obj = json.loads(data)
    return int(obj["index"]), int(obj["token"])
