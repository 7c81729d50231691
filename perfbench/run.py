"""Transfer benchmark for deltadistill.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed and the repetition's index determine the repetition's world
(world.py), which is written before its commands run. Each repetition drives
the real CLI (``cli.main``) on its world through ``fit``, ``transfer``, a
second ``transfer`` into a fresh output directory that shares the first one's
model files and response cache, and ``analyze``, each command in a fresh
process (worker.py). It checks the outputs and moves on to a new world until
the time is up. One client, one thread, one command at a time: a closed loop.
README.md lists the metrics.

With --trace 0 it reports the end-to-end metrics (see end_to_end). With
--trace 1 it alternates untraced and traced repetitions of the same world and
reports the per-layer metrics of the traced ones (medians, see layers.py),
plus the tracing slowdown; spans are kept under .bench_work/<workload>/spans/.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import METRICS, layer_metrics
from world import WorldSpec, make_world, write_world

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_REPS = 3
START_LIMIT_S = 100  # no repetition starts after this; a run must end within 180 s
STEP_TIMEOUT_S = 60
RESIDUAL_TOLERANCE = 1e-9
# An untraced repetition reruns fit and analyze until their samples cover
# SAMPLED_S or number MAX_SAMPLES: where they take well under a second, a run
# would otherwise hold too few samples of them for a steady median.
SAMPLED_S = 1.0
MAX_SAMPLES = 3
# the share of the traced transfer_s that may fall outside every named layer span
CLI_SELF_MAX_SHARE = 0.25

# Environment of every CLI process: pinned manifest timestamps (so a rerun is
# byte-identical), a fixed hash seed, one numeric thread, no proxy for localhost.
CLI_ENV = {
    **os.environ,
    "SOURCE_DATE_EPOCH": "1700000000",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NO_PROXY": "127.0.0.1,localhost",
}


@dataclass(frozen=True)
class Workload:
    world: WorldSpec
    config: dict

    @property
    def endpoint(self) -> bool:
        return self.config["strategy"] == "instruction_template"


_COMMON = {"order": 3, "lam": 5.0, "rule": "low_high", "tau": 1.5, "workers": 1, "max_iterations": 1000}

WORKLOADS = {
    # lm sampling and scoring, the dense distribution caches and the prompt
    # refits dominate; remote does no work
    "local-2k": Workload(
        world=WorldSpec(words=1900, fillers=12, seeds=120, probes_in=20, probes_out=10),
        config={
            **_COMMON,
            "alpha": 0.001,
            "strategy": "prefix_resample",
            "prompt_order": 2,
            "prompt_alpha": 1e-4,
            "prompt_max_len": 6,
            "batch_size": 50,
            "max_len": 16,
            "target_size": 300,
            "target_kind": "tabular",
            "target_alpha": 0.001,
            "enum_length": 1,
        },
    ),
    # remote and the client overhead dominate, lm is cheap; the cold half
    # writes the response cache and the warm half only reads it
    "endpoint-cache": Workload(
        world=WorldSpec(words=300, fillers=10, seeds=40, probes_in=20, probes_out=10),
        config={
            **_COMMON,
            "alpha": 0.01,
            "strategy": "instruction_template",
            "endpoint_model": "bench-gen",
            "batch_size": 6,
            "demonstrations": 5,
            "max_len": 3,
            "target_size": 700,
            "target_kind": "tabular",
            "target_alpha": 0.01,
            "enum_length": 1,
        },
    ),
    # exact |V|^L enumeration (analysis) and gradient distillation do the work
    "analyze-small": Workload(
        world=WorldSpec(words=48, fillers=8, seeds=36, probes_in=4, probes_out=2),
        config={
            **_COMMON,
            "alpha": 0.01,
            "strategy": "prefix_resample",
            "prompt_order": 2,
            "prompt_alpha": 0.001,
            "prompt_max_len": 6,
            "batch_size": 20,
            "max_len": 8,
            "target_size": 100,
            "target_kind": "gradient",
            "target_order": 3,
            "epochs": 1000,
            "learning_rate": 0.5,
            "enum_length": 3,
        },
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "transfer_s": "s",
    "scored_pairs_per_s": "pairs/s",
    "warm_transfer_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
    "probe_ppl_in": "ppl",
}


@dataclass
class Ops:
    """Operations attempted and failed: CLI commands, output checks, HTTP requests."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, what: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


@dataclass
class Step:
    code: int
    wall_s: float = math.nan
    maxrss_mb: float = math.nan


@dataclass
class Rep:
    directory: Path
    steps: dict[str, list[Step]] = field(default_factory=dict)  # fit and analyze may run more than once
    spans: dict[str, Path] = field(default_factory=dict)
    report: dict = field(default_factory=dict)
    http_cold: int = 0
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return len(self.steps) == 4 and all(step.code == 0 for steps in self.steps.values() for step in steps)

    @property
    def cold(self) -> Path:
        return self.directory / "cold"

    @property
    def warm(self) -> Path:
        return self.directory / "warm"

    @property
    def cache(self) -> Path:
        return self.directory / "cache"


class MockServer:
    """The localhost completion server (mockserver.py) in a child process."""

    def __init__(self, world_json: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "mockserver.py"), str(world_json)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.url = f"http://127.0.0.1:{int(self.proc.stdout.readline())}/v1/completions"

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> dict:
        """Stop the server and wait for it; return its final counts."""
        try:
            self.proc.stdin.close()
            final = json.loads(self.proc.stdout.readline() or "{}")
            self.proc.wait(timeout=10)
            return final
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def run_cli(rep: Rep, step: str, argv: list[str], traced: bool) -> Step:
    result = rep.directory / f"{step}.result.json"
    spans = rep.directory / f"{step}.spans.jsonl"
    with open(rep.directory / f"{step}.log", "w", encoding="utf-8") as log:
        try:
            code = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), str(result), str(spans) if traced else "-", *argv],
                cwd=ROOT,
                env=CLI_ENV,
                stdout=log,
                stderr=subprocess.STDOUT,
                timeout=STEP_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:  # the child has been killed and reaped
            code = -1
    if code != 0 or not result.exists():
        out = Step(code=code or 1)
    else:
        out = Step(**json.loads(result.read_text(encoding="utf-8")))
    rep.steps.setdefault(step, []).append(out)
    if traced:
        rep.spans[step] = spans
    return out


def run_rep(workload: Workload, world_dir: Path, rep: Rep, ops: Ops, traced: bool) -> None:
    """fit, transfer, warm transfer and analyze on one world, with output checks."""
    from deltadistill.corpus import load_dataset
    from deltadistill.scoring import KEPT, ScoredPair, low_high_violations

    rep.directory.mkdir(parents=True)
    config = json.loads((world_dir / "run.json").read_text(encoding="utf-8"))
    config["cache_dir"] = str(rep.cache)
    server = MockServer(world_dir / "world.json") if workload.endpoint else None
    try:
        if server is not None:
            config["endpoint_url"] = server.url
        config_path = rep.directory / "run.json"
        config_path.write_text(json.dumps(config, indent=1), encoding="utf-8")

        def cli(step: str, command: str, out: Path) -> bool:
            result = run_cli(rep, step, [command, "--config", str(config_path), "--out", str(out)], traced)
            return ops.check(f"{step} exits 0", result.code == 0)

        def repeated(step: str, command: str, out: Path) -> bool:
            """Rerun a short command (it overwrites its own outputs) for more samples per world."""
            while cli(step, command, out):
                samples = rep.steps[step]
                if traced or len(samples) == MAX_SAMPLES or sum(x.wall_s for x in samples) >= SAMPLED_S:
                    return True
            return False

        if not repeated("fit", "fit", rep.cold):
            return
        cold_ok = cli("transfer", "transfer", rep.cold)
        rep.http_cold = server.stats()["requests"] if server is not None else 0
        if server is not None and cold_ok:
            # every successful request is cached under its own key, so a retry shows as a surplus request
            ops.check("cold transfer retries no HTTP request", rep.http_cold == len(list(rep.cache.glob("*.json"))))
        rep.warm.mkdir()
        shutil.copytree(rep.cold / "models", rep.warm / "models", ignore=shutil.ignore_patterns("target.model"))
        warm_ok = cli("warm_transfer", "transfer", rep.warm)
        if server is not None:
            final = server.close()
            server = None
            ops.attempted += final["requests"]
            ops.failed += sum(n for status, n in final["statuses"].items() if status != "200")
            ops.check("warm transfer sends no HTTP request", final["requests"] == rep.http_cold)
        analyze_ok = repeated("analyze", "analyze", rep.cold)
    finally:
        if server is not None:
            server.close()

    if cold_ok:
        rep.report = json.loads((rep.cold / "report.json").read_text(encoding="utf-8"))
        ops.check(
            "kept == target_size and budget not exhausted",
            rep.report["kept"] == config["target_size"] and not rep.report["budget_exhausted"],
        )
        pairs = [
            ScoredPair(ex.prompt, ex.response, "", ex.ppl_f, ex.ppl_b, verdict=KEPT if ex.kept else None)
            for ex in load_dataset(rep.cold / "dataset.jsonl")
            if ex.ppl_f is not None
        ]
        ops.check("no low_high violations in dataset.jsonl", not low_high_violations(pairs, config["tau"]))
        probes = rep.report["probes"]["in_domain"]
        ops.check("in-domain probe perplexity post < pre", probes["post"] < probes["pre"])
        if config["target_kind"] == "gradient":
            losses = [float(line.split(",")[1]) for line in (rep.cold / "loss.csv").read_text().splitlines()[1:]]
            ops.check(
                "gradient loss finite and non-increasing",
                all(math.isfinite(x) for x in losses) and all(b <= a for a, b in zip(losses, losses[1:])),
            )
    if cold_ok and warm_ok:
        for name in ("dataset.jsonl", "report.json"):
            same = (rep.cold / name).read_bytes() == (rep.warm / name).read_bytes()
            ops.check(f"warm {name} byte-identical to cold", same)
    if analyze_ok:
        lines = (rep.cold / "analysis" / "decompositions.jsonl").read_text(encoding="utf-8").splitlines()[1:]
        residuals = [abs(json.loads(line)["residual"]) for line in lines]
        ops.check("analyze decompositions present", bool(residuals))
        ops.check("every |residual| <= 1e-9", all(r <= RESIDUAL_TOLERANCE for r in residuals))
    if traced and rep.ok:
        rep.layers = layer_metrics(rep)
        ops.check(
            f"named layer spans cover all but {CLI_SELF_MAX_SHARE:.0%} of the traced transfer_s",
            rep.layers["cli.self_s"] <= CLI_SELF_MAX_SHARE * rep.steps["transfer"][0].wall_s,
        )


def end_to_end(reps: list[Rep]) -> dict[str, float]:
    """Medians over all samples, except the throughput, which is over the whole run.

    The number of pairs a world needs scored before target_size are kept varies
    from world to world far more than the time a transfer takes, so the pairs
    scored over all worlds per second of transfer are steadier than a median of
    per-world rates.
    """

    def wall(step: str) -> list[float]:
        return [sample.wall_s for rep in reps for sample in rep.steps[step]]

    scored = sum(it["scored"] for rep in reps for it in rep.report["iterations"])
    return {
        "setup_s": statistics.median(wall("fit")),
        "transfer_s": statistics.median(wall("transfer")),
        "scored_pairs_per_s": scored / sum(wall("transfer")),
        "warm_transfer_s": statistics.median(wall("warm_transfer")),
        "analyze_s": statistics.median(wall("analyze")),
        "peak_rss_mb": statistics.median(
            max(sample.maxrss_mb for samples in rep.steps.values() for sample in samples) for rep in reps
        ),
        "probe_ppl_in": statistics.median(rep.report["probes"]["in_domain"]["post"] for rep in reps),
    }


def prepare_world(name: str, workload: Workload, seed: int, k: int, directory: Path) -> Path:
    """Write the k-th world of this run and its config; the same seed gives the same files."""
    world_seed = random.Random(f"{name}/{seed}/{k}").getrandbits(31)
    world = make_world(workload.world, world_seed)
    config = {**workload.config, **write_world(world, world_seed, directory), "rng_seed": world_seed}
    (directory / "run.json").write_text(json.dumps(config, indent=1), encoding="utf-8")
    return directory


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]} if samples else {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "deltadistill" / "cli.py").is_file():
        print(f"error: the deltadistill sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]

    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    spans_dir = run_dir / "spans"
    spans_dir.mkdir(parents=True)

    ops = Ops()
    untraced: list[Rep] = []
    traced: list[dict[str, float]] = []
    slowdowns: list[float] = []
    began = time.perf_counter()
    reps = 0
    while True:
        elapsed = time.perf_counter() - began
        # start a repetition only while it is expected to end about --seconds in
        if elapsed > START_LIMIT_S or (reps >= MIN_REPS and elapsed + elapsed / reps / 2 > args.seconds):
            break
        # every repetition has a world of its own, so that the medians average over many worlds
        world_dir = prepare_world(args.workload, workload, args.seed, reps, run_dir / f"world{reps}")
        rep = Rep(run_dir / f"rep{reps}")
        run_rep(workload, world_dir, rep, ops, traced=False)
        if rep.ok:
            untraced.append(rep)
        if args.trace:
            trep = Rep(run_dir / f"rep{reps}-traced")
            run_rep(workload, world_dir, trep, ops, traced=True)
            if rep.ok and trep.ok:
                traced.append(trep.layers)
                slowdowns.append(trep.steps["transfer"][0].wall_s / rep.steps["transfer"][0].wall_s)
                for step, path in trep.spans.items():
                    shutil.move(path, spans_dir / f"rep{reps}-{step}.jsonl")
            shutil.rmtree(trep.directory)
        shutil.rmtree(rep.directory)
        shutil.rmtree(world_dir)
        reps += 1

    if args.trace:
        metrics = median_metrics(traced)
        if slowdowns:
            metrics["trace.slowdown"] = statistics.median(slowdowns)
        units = {name: unit for name, (unit, _better) in METRICS.items()}
    else:
        metrics = end_to_end(untraced) if untraced else {}
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{args.workload:15s} {name:34s} {value:14.6g} {units[name]}")
    print(f"{args.workload:15s} {'failed_ops_ratio':34s} {ops.failed / max(ops.attempted, 1):14.6g} ratio")
    print(f"{args.workload:15s} repetitions {reps}, operations {ops.attempted}, failed {ops.failed}")
    for failure in ops.failures:
        print(f"FAILED: {failure}")
    correct = ops.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": max(ops.attempted, 1),
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
