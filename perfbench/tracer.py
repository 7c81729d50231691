"""In-memory spans around the calls into each deltadistill module.

``instrument`` replaces each public function where the calling module looks
it up (for example ``synthgen.score_pair`` or ``cli.save_model``), so nested
calls become child spans of their caller. A span records its name, start,
end, span id, parent id and the trace id of the run, plus a few counts taken
from the call's arguments or result. Spans stay in memory and are written
out once, when the traced command ends.
"""

from __future__ import annotations

import json
import resource
import time
from typing import Any, Callable

Attrs = Callable[[Any, tuple, dict], dict]


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 1

    def wrap(self, name: str, fn: Callable, attrs: Attrs | None = None) -> Callable:
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent_id = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append((name, start, time.perf_counter_ns(), span_id, parent_id, None))
                raise
            finally:
                self._stack.pop()
            end = time.perf_counter_ns()
            self.spans.append((name, start, end, span_id, parent_id, attrs(result, args, kwargs) if attrs else None))
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, span_id, parent_id, extra in self.spans:
                record = {
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "span_id": span_id,
                    "parent_id": parent_id,
                    "trace_id": self.trace_id,
                }
                if extra:
                    record.update(extra)
                fh.write(json.dumps(record) + "\n")


def _tokens(result, args, kwargs) -> dict:
    return {"tokens": len(result)}


def _maxrss(result, args, kwargs) -> dict:
    return {"maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


class _RequestsProxy:
    """Stands in for the ``requests`` module inside ``remote`` with a traced ``post``."""

    def __init__(self, real, post):
        self._real = real
        self.post = post

    def __getattr__(self, name):
        return getattr(self._real, name)


def instrument(tracer: Tracer) -> None:
    """Wrap the module-level lookups of the deltadistill package in spans."""
    from deltadistill import analysis, cli, corpus, distill, lm, remote, scoring, synthgen

    def patch(module, attr: str, attrs: Attrs | None = None, prefix: str | None = None) -> None:
        name = f"{prefix or module.__name__.rsplit('.', 1)[-1]}.{attr}"
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs))

    for attr in ("build_vocabulary", "tokenize", "load_dataset", "save_dataset", "fit_tabular",
                 "apply_fine_tune", "save_model", "corpus_perplexity", "read_probes"):
        patch(cli, attr)
    patch(cli, "load_model", _maxrss)
    # cli reaches these through the module object, e.g. ``synthgen.build_dataset``
    patch(synthgen, "build_dataset")
    patch(distill, "distill_tabular")
    patch(distill, "distill_gradient", lambda r, a, k: {"cells": int(r[0].logits.size), "epochs": k["config"].epochs})
    patch(analysis, "decompose_margin", lambda r, a, k: {"residual": r.residual})
    patch(analysis, "perplexity_histogram")
    patch(analysis, "distinct_n")

    patch(synthgen, "run_iteration")
    patch(synthgen, "_generate_with_count")
    for attr in ("tokenize", "fit_tabular", "score_pair", "with_verdict"):
        patch(synthgen, attr)
    patch(synthgen, "sample", _tokens)
    patch(scoring, "sample", _tokens)
    patch(scoring, "perplexity")
    patch(scoring, "step_log_probs", _tokens)
    patch(lm, "step_log_probs", _tokens)
    patch(corpus, "tokenize")
    for attr in ("kd_pairs", "occurrence_weights", "mean_kd_objective"):
        patch(distill, attr)
    patch(analysis, "enumerate_sequence_distribution", lambda r, a, k: {"sequences": len(r)})

    def post_attrs(response, args, kwargs) -> dict:
        return {"status": response.status_code, "key": remote.request_key(kwargs["json"])}

    post = tracer.wrap("remote.requests.post", remote.requests.post, post_attrs)
    remote.requests = _RequestsProxy(remote.requests, post)
    patch(remote.CompletionClient, "generate", prefix="remote.CompletionClient")
    patch(remote.ResponseCache, "get", lambda r, a, k: {"hit": r is not None}, prefix="remote.ResponseCache")
    patch(remote.ResponseCache, "put", prefix="remote.ResponseCache")
