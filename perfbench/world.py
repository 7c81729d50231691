"""Seeded synthetic worlds for the transfer benchmark.

A world is a table of "<subject> gives <object>" facts in the four strata of
the test fixture (tests/fixtures.py), scaled up by vocabulary size:

  core      - fine-tune corpus only; the base model has never seen them
  boosted   - in both corpora; fine-tuning sharpens what the base half-knows
  carrier   - dominated by the base corpus, lightly repeated in fine-tuning
  outside   - base corpus only

Prompts are "<filler-a> <filler-b> <subject> gives" and responses are the
object. The filler sets are far wider than the fixture's 4x3, so that
exact-match deduplication does not starve generation. Everything here is a
pure function of (spec, seed).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

_ONSETS = "b c d f g h j k l m n p r s t v w x z".split() + ["br", "dr", "kl", "pr", "st", "tr"]
_NUCLEI = "a e i o u".split() + ["ai", "ou"]

STRATA = ("core", "boosted", "carrier", "outside")
# share of facts per stratum, as in the fixture (2:4:4:2)
SHARES = {"core": 1 / 6, "boosted": 1 / 3, "carrier": 1 / 3, "outside": 1 / 6}
BASE_REPS = {"boosted": 6, "carrier": 16, "outside": 12}
FT_REPS = {"core": 10, "boosted": 3, "carrier": 1}


@dataclass(frozen=True)
class WorldSpec:
    words: int  # distinct corpus words, fillers included
    fillers: int  # size of each of the two filler-prefix sets
    seeds: int  # seed examples in the generation pool
    probes_in: int
    probes_out: int


def _pseudo_words(rng: random.Random, count: int) -> list[str]:
    syllables = [o + n for o in _ONSETS for n in _NUCLEI]
    words: set[str] = set()
    while len(words) < count:
        words.add("".join(rng.choice(syllables) for _ in range(rng.choice((2, 3)))))
    out = sorted(words)
    rng.shuffle(out)
    return out


def make_world(spec: WorldSpec, seed: int) -> dict:
    """Facts, fillers, seeds and probes of one world, as plain JSON data."""
    rng = random.Random(seed)
    n_facts = (spec.words - 2 * spec.fillers - 1) // 2  # "gives" is the one shared word
    words = _pseudo_words(rng, 2 * spec.fillers + 2 * n_facts)
    filler_a, filler_b = words[: spec.fillers], words[spec.fillers : 2 * spec.fillers]
    subjects = words[2 * spec.fillers :: 2][:n_facts]
    objects = words[2 * spec.fillers + 1 :: 2][:n_facts]

    facts: dict[str, dict[str, str]] = {}
    start = 0
    for i, name in enumerate(STRATA):
        end = n_facts if i == len(STRATA) - 1 else start + round(SHARES[name] * n_facts)
        facts[name] = dict(zip(subjects[start:end], objects[start:end]))
        start = end

    def prompt(subject: str) -> str:
        return f"{rng.choice(filler_a)} {rng.choice(filler_b)} {subject} gives"

    everything = {s: o for table in facts.values() for s, o in table.items()}
    # stratified, so that every world of a spec starts from the same mix; a
    # small world repeats subjects under other fillers
    seeds: list[tuple[str, str]] = []
    seed_subjects: list[str] = []
    for name in STRATA:
        subjects_here = sorted(facts[name])
        rng.shuffle(subjects_here)
        for i in range(round(SHARES[name] * spec.seeds)):
            seed_subjects.append(subjects_here[i % len(subjects_here)])
    taken: set[str] = set()
    for s in seed_subjects:
        text = prompt(s)
        while text in taken:
            text = prompt(s)
        taken.add(text)
        seeds.append((text, everything[s]))
    rng.shuffle(seeds)
    # in-domain probes: knowledge only fine-tuning added, reachable from the
    # seeds; out-of-domain probes: facts fine-tuning never touched
    seeded = set(seed_subjects)
    specialty = [s for s in facts["core"] if s in seeded]
    outside = sorted(facts["outside"])
    probes_in = [(f"{s} gives", everything[s]) for s in rng.sample(specialty, min(spec.probes_in, len(specialty)))]
    probes_out = [(f"{s} gives", everything[s]) for s in rng.sample(outside, min(spec.probes_out, len(outside)))]
    return {
        "facts": facts,
        "filler_a": filler_a,
        "filler_b": filler_b,
        "seeds": seeds,
        "probes_in": probes_in,
        "probes_out": probes_out,
    }


def corpus_lines(world: dict, reps: dict[str, int], rng: random.Random) -> list[str]:
    lines = [f"{s} gives {o}" for name, n in reps.items() for s, o in world["facts"][name].items() for _ in range(n)]
    rng.shuffle(lines)
    return lines


def write_world(world: dict, seed: int, directory: Path) -> dict[str, str]:
    """Write corpora, seeds and probes; return the config's path fields."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed + 1)
    base = corpus_lines(world, BASE_REPS, rng)
    # one filler line per filler word keeps every prompt word in the vocabulary
    base += [f"{a} {b}" for a, b in zip(world["filler_a"], world["filler_b"])]
    ft = corpus_lines(world, FT_REPS, rng)
    (directory / "base.txt").write_text("\n".join(base) + "\n", encoding="utf-8")
    (directory / "specialty.txt").write_text("\n".join(ft) + "\n", encoding="utf-8")

    def jsonl(name: str, pairs, manifest: bool) -> str:
        path = directory / name
        with open(path, "w", encoding="utf-8") as fh:
            if manifest:
                counts = {"seed": len(pairs), "generated": 0}
                fh.write(json.dumps({"type": "manifest", "config_hash": "", "created_at": "", "counts": counts}) + "\n")
            for p, r in pairs:
                record = {"prompt": p, "response": r}
                if manifest:
                    record.update(provenance="seed", iteration=0)
                fh.write(json.dumps(record) + "\n")
        return str(path)

    with open(directory / "world.json", "w", encoding="utf-8") as fh:
        json.dump(world, fh)
    return {
        "base_corpus": str(directory / "base.txt"),
        "ft_corpus": str(directory / "specialty.txt"),
        "seed_data": jsonl("seeds.jsonl", world["seeds"], manifest=True),
        "in_domain_probes": jsonl("probes_in.jsonl", world["probes_in"], manifest=False),
        "out_domain_probes": jsonl("probes_out.jsonl", world["probes_out"], manifest=False),
    }
