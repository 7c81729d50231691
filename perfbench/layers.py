"""Per-layer metrics derived from the spans of one traced repetition.

Each metric names the deltadistill module it measures. The end-to-end metric
and workload each one should move are listed in README.md.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# name -> (unit, better); the order is the order of the output
METRICS = {
    "corpus.build_vocabulary_s": ("s", "lower"),
    "corpus.tokenize_calls": ("count", "lower"),
    "corpus.tokenize_s": ("s", "lower"),
    "corpus.save_dataset_s": ("s", "lower"),
    "corpus.dataset_bytes": ("bytes", "lower"),
    "corpus.load_dataset_s": ("s", "lower"),
    "lm.fit_s": ("s", "lower"),
    "lm.save_model_s": ("s", "lower"),
    "lm.model_bytes": ("bytes", "lower"),
    "lm.load_model_s": ("s", "lower"),
    "lm.sample_calls": ("count", "lower"),
    "lm.sample_tokens": ("count", "lower"),
    "lm.sample_s": ("s", "lower"),
    "lm.sample_us_per_token": ("us", "lower"),
    "lm.step_log_probs_calls": ("count", "lower"),
    "lm.step_log_probs_tokens": ("count", "lower"),
    "lm.step_log_probs_s": ("s", "lower"),
    "lm.rss_growth_mb": ("MB", "lower"),
    "scoring.score_pair_calls": ("count", "lower"),
    "scoring.score_pair_s": ("s", "lower"),
    "scoring.score_pair_self_s": ("s", "lower"),
    "scoring.filter_s": ("s", "lower"),
    "scoring.corpus_perplexity_s": ("s", "lower"),
    "synthgen.iterations": ("count", "lower"),
    "synthgen.run_iteration_ms_p50": ("ms", "lower"),
    "synthgen.run_iteration_ms_p90": ("ms", "lower"),
    "synthgen.draft_self_s": ("s", "lower"),
    "synthgen.prompt_refit_s": ("s", "lower"),
    "synthgen.prompt_refit_growth": ("ratio", "lower"),
    "synthgen.drafted": ("count", "lower"),
    "synthgen.dedup_rate": ("ratio", "lower"),
    "synthgen.keep_rate": ("ratio", "higher"),
    "remote.generate_calls": ("count", "lower"),
    "remote.generate_s": ("s", "lower"),
    "remote.http_requests": ("count", "lower"),
    "remote.http_s": ("s", "lower"),
    "remote.client_overhead_s": ("s", "lower"),
    "remote.cache_get_s": ("s", "lower"),
    "remote.cache_hits": ("count", "higher"),
    "remote.cache_hit_rate": ("ratio", "higher"),
    "remote.cache_put_s": ("s", "lower"),
    "remote.cache_bytes": ("bytes", "lower"),
    "distill.tabular_s": ("s", "lower"),
    "distill.gradient_s": ("s", "lower"),
    "distill.gradient_epochs_per_s": ("1/s", "higher"),
    "distill.logit_cells": ("count", "lower"),
    "analysis.decompose_calls": ("count", "lower"),
    "analysis.decompose_s": ("s", "lower"),
    "analysis.sequences_enumerated": ("count", "lower"),
    "analysis.max_abs_residual": ("nat", "lower"),
    "analysis.histogram_s": ("s", "lower"),
    "analysis.distinct_n_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.slowdown": ("ratio", "lower"),
}

TOKENIZE = ("cli.tokenize", "synthgen.tokenize", "corpus.tokenize")
SAMPLE = ("synthgen.sample", "scoring.sample")
STEP_LOG_PROBS = ("lm.step_log_probs", "scoring.step_log_probs")


class Spans:
    """Spans of one traced CLI command, with each span's self time."""

    def __init__(self, path: Path):
        with open(path, encoding="utf-8") as fh:
            self.spans = [json.loads(line) for line in fh]
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            span["dur_s"] = (span["end_ns"] - span["start_ns"]) / 1e9
            children.setdefault(span["parent_id"], []).append(span)
        for span in self.spans:
            span["self_s"] = span["dur_s"] - _covered(children.get(span["span_id"], []))

    def of(self, *names: str) -> list[dict]:
        return [s for s in self.spans if s["name"] in names]

    def count(self, *names: str) -> int:
        return len(self.of(*names))

    def total(self, *names: str) -> float:
        return sum(s["dur_s"] for s in self.of(*names))

    def self_total(self, *names: str) -> float:
        return sum(s["self_s"] for s in self.of(*names))

    def attr_sum(self, key: str, *names: str) -> float:
        return sum(s[key] for s in self.of(*names) if key in s)


def _covered(children: list[dict]) -> float:
    """Seconds of the union of the children's intervals."""
    covered_ns, reach = 0, None
    for child in sorted(children, key=lambda s: s["start_ns"]):
        start, end = child["start_ns"], child["end_ns"]
        if reach is not None:
            start = max(start, reach)
        if end > start:
            covered_ns += end - start
        reach = end if reach is None else max(reach, end)
    return covered_ns / 1e9


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _bytes(*paths: Path) -> int:
    total = 0
    for path in paths:
        if path.is_dir():
            total += sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
        elif path.exists():
            total += path.stat().st_size
    return total


def layer_metrics(rep) -> dict[str, float]:
    """Every per-layer metric of one traced repetition (see run.Rep)."""
    fit, cold, warm, analyze = (Spans(rep.spans[step]) for step in ("fit", "transfer", "warm_transfer", "analyze"))
    report = rep.report
    iterations = report["iterations"]
    drafted = sum(it["generated"] for it in iterations)
    scored = sum(it["scored"] for it in iterations)
    m: dict[str, float] = {}

    m["corpus.build_vocabulary_s"] = fit.total("cli.build_vocabulary")
    m["corpus.tokenize_calls"] = cold.count(*TOKENIZE)
    m["corpus.tokenize_s"] = cold.total(*TOKENIZE)
    m["corpus.save_dataset_s"] = cold.total("cli.save_dataset")
    m["corpus.dataset_bytes"] = _bytes(rep.cold / "dataset.jsonl", rep.cold / "discards.jsonl")
    m["corpus.load_dataset_s"] = analyze.total("cli.load_dataset")

    m["lm.fit_s"] = fit.total("cli.fit_tabular", "cli.apply_fine_tune")
    m["lm.save_model_s"] = fit.total("cli.save_model")
    m["lm.model_bytes"] = _bytes(rep.cold / "models" / "base.model", rep.cold / "models" / "finetuned.model")
    m["lm.load_model_s"] = cold.total("cli.load_model")
    m["lm.sample_calls"] = cold.count(*SAMPLE)
    m["lm.sample_tokens"] = cold.attr_sum("tokens", *SAMPLE)
    m["lm.sample_s"] = cold.total(*SAMPLE)
    m["lm.sample_us_per_token"] = 1e6 * _ratio(m["lm.sample_s"], m["lm.sample_tokens"])
    m["lm.step_log_probs_calls"] = cold.count(*STEP_LOG_PROBS)
    m["lm.step_log_probs_tokens"] = cold.attr_sum("tokens", *STEP_LOG_PROBS)
    m["lm.step_log_probs_s"] = cold.total(*STEP_LOG_PROBS)
    loads = cold.of("cli.load_model")
    m["lm.rss_growth_mb"] = rep.steps["transfer"][0].maxrss_mb - loads[-1]["maxrss_mb"] if loads else 0.0

    m["scoring.score_pair_calls"] = cold.count("synthgen.score_pair")
    m["scoring.score_pair_s"] = cold.total("synthgen.score_pair")
    m["scoring.score_pair_self_s"] = cold.self_total("synthgen.score_pair")
    m["scoring.filter_s"] = cold.total("synthgen.with_verdict")
    m["scoring.corpus_perplexity_s"] = cold.total("cli.corpus_perplexity")

    iteration_ms = [1e3 * s["dur_s"] for s in cold.of("synthgen.run_iteration")]
    refits = [s["dur_s"] for s in cold.of("synthgen.fit_tabular")]
    m["synthgen.iterations"] = len(iteration_ms)
    m["synthgen.run_iteration_ms_p50"] = percentile(iteration_ms, 50)
    m["synthgen.run_iteration_ms_p90"] = percentile(iteration_ms, 90)
    m["synthgen.draft_self_s"] = cold.self_total("synthgen._generate_with_count")
    m["synthgen.prompt_refit_s"] = sum(refits)
    m["synthgen.prompt_refit_growth"] = _ratio(refits[-1], refits[0]) if refits else 0.0
    m["synthgen.drafted"] = drafted
    m["synthgen.dedup_rate"] = _ratio(sum(it["duplicates"] for it in iterations), drafted)
    m["synthgen.keep_rate"] = _ratio(sum(it["kept"] for it in iterations), scored)

    gets = warm.of("remote.ResponseCache.get")
    m["remote.generate_calls"] = cold.count("remote.CompletionClient.generate")
    m["remote.generate_s"] = cold.total("remote.CompletionClient.generate")
    m["remote.http_requests"] = rep.http_cold
    m["remote.http_s"] = cold.total("remote.requests.post")
    m["remote.client_overhead_s"] = m["remote.generate_s"] - m["remote.http_s"]
    m["remote.cache_get_s"] = warm.total("remote.ResponseCache.get")
    m["remote.cache_hits"] = sum(1 for s in gets if s.get("hit"))
    m["remote.cache_hit_rate"] = _ratio(m["remote.cache_hits"], len(gets))
    m["remote.cache_put_s"] = cold.total("remote.ResponseCache.put")
    m["remote.cache_bytes"] = _bytes(rep.cache)

    gradient = cold.of("distill.distill_gradient")
    m["distill.tabular_s"] = cold.total("distill.distill_tabular")
    m["distill.gradient_s"] = cold.total("distill.distill_gradient")
    m["distill.gradient_epochs_per_s"] = _ratio(sum(s["epochs"] for s in gradient), m["distill.gradient_s"])
    m["distill.logit_cells"] = sum(s["cells"] for s in gradient)

    m["analysis.decompose_calls"] = analyze.count("analysis.decompose_margin")
    m["analysis.decompose_s"] = analyze.total("analysis.decompose_margin")
    m["analysis.sequences_enumerated"] = analyze.attr_sum("sequences", "analysis.enumerate_sequence_distribution")
    m["analysis.max_abs_residual"] = max((abs(s["residual"]) for s in analyze.of("analysis.decompose_margin")), default=0.0)
    m["analysis.histogram_s"] = analyze.total("analysis.perplexity_histogram")
    m["analysis.distinct_n_s"] = analyze.total("analysis.distinct_n")

    m["cli.self_s"] = cold.self_total("cli.main")
    return m
