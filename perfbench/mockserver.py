"""Localhost mock completion server for the endpoint-cache workload.

Usage: python3 mockserver.py WORLD_JSON

Plays the instruction-tuned generator: given the bulk-generation instruction
with Q/A demonstrations, it answers with a numbered list of new samples. Half
of the items reuse a demonstration's subject and half draw a subject from the
whole world; filler prefixes are drawn from the world's filler sets. Every
reply is a pure function of the request payload's hash, as in
tests/mockend.py, so cold and cached runs are byte-identical.

One single-threaded process serves one connection at a time. It prints its
port on the first stdout line. Each "stats" line on stdin prints the counts
so far (requests and a status histogram) as one JSON line; end of stdin
prints the final counts and exits.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import selectors
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

_DEMO = re.compile(r"Q: (.+?) A: (.+?)$", re.MULTILINE)
_HEADER = re.compile(r"Generate (\d+) more samples like these (\d+)")


def request_key(payload: dict) -> str:
    # same hash as deltadistill.remote.request_key
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


class Generator:
    def __init__(self, world: dict):
        self.facts = {s: o for table in world["facts"].values() for s, o in table.items()}
        self.subjects = sorted(self.facts)
        self.filler_a = world["filler_a"]
        self.filler_b = world["filler_b"]

    def reply(self, payload: dict) -> tuple[int, str]:
        header = _HEADER.search(payload.get("prompt", ""))
        if header is None:
            return 400, "unrecognized instruction"
        demo_subjects = []
        for prompt, _answer in _DEMO.findall(payload["prompt"]):
            words = prompt.split()
            if len(words) == 4 and words[3] == "gives" and words[2] in self.facts:
                demo_subjects.append(words[2])
        rng = random.Random(int(request_key(payload)[:12], 16))
        items = []
        for i in range(int(header.group(1))):
            pool = demo_subjects if demo_subjects and rng.random() < 0.5 else self.subjects
            s = rng.choice(pool)
            a, b = rng.choice(self.filler_a), rng.choice(self.filler_b)
            items.append(f"{i + 1}. Q: {a} {b} {s} gives A: {self.facts[s]}")
        return 200, json.dumps({"choices": [{"text": "\n".join(items)}]})


class _Handler(BaseHTTPRequestHandler):
    def do_POST(self):
        server = self.server
        try:
            length = int(self.headers.get("Content-Length", "0"))
            payload = json.loads(self.rfile.read(length))
            status, body = server.generator.reply(payload)
        except (ValueError, KeyError, TypeError) as exc:
            status, body = 400, f"bad request: {exc}"
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json" if status == 200 else "text/plain")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)
        server.requests += 1
        server.statuses[str(status)] = server.statuses.get(str(status), 0) + 1

    def log_message(self, format, *args):
        pass


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        generator = Generator(json.load(fh))
    with HTTPServer(("127.0.0.1", 0), _Handler) as server:
        server.generator = generator
        server.requests = 0
        server.statuses = {}

        def counts() -> str:
            return json.dumps({"requests": server.requests, "statuses": server.statuses}, sort_keys=True)

        print(server.server_address[1], flush=True)
        with selectors.DefaultSelector() as sel:
            sel.register(server.socket, selectors.EVENT_READ, "http")
            sel.register(sys.stdin, selectors.EVENT_READ, "stdin")
            while True:
                for key, _ in sel.select():
                    if key.data == "http":
                        server.handle_request()
                        continue
                    line = sys.stdin.readline()
                    if not line:
                        print(counts(), flush=True)
                        return 0
                    if line.strip() == "stats":
                        print(counts(), flush=True)


if __name__ == "__main__":
    sys.exit(main())
