"""Seeded benchmark inputs: closed surface programs and their references.

The program families are those of ``benchmarks/workloads.py``, rendered to
surface text with ``repro.surface.to_surface`` during set-up, so the
operations receive nothing but text.  References never come from the
compiler under test: the families have closed-form answers, and generated
programs are normalized by the source-level CC normalizer
(``Session.normalize``), not by closure conversion and the machine.

Sizes are drawn from ranges, one uniform draw per equal-width stratum, so
the latency distribution has no gap between size classes for a percentile
rank to fall into.  Where a family's sizes are integers and the stratum
count is a multiple of the range, every seed draws the same multiset of
sizes: the seed then changes the generated programs, the order of
operations and the job layout, but not the aggregate cost of a run, which
is what keeps run-to-run spread within the benchmark's bounds.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass

from common import ROOT

__all__ = [
    "Program",
    "cc_shape",
    "cold_verify_programs",
    "exec_heavy_programs",
    "machine_shape",
    "pool_corpus",
]


@dataclass(frozen=True)
class Program:
    """One closed surface program with its reference observation."""

    label: str
    family: str
    size: int
    text: str
    expect: tuple


#: family -> reference observation of its value at a size
ANSWERS = {
    "church_sum": lambda n: ("nat", 2 * n),
    "nat_sum": lambda n: ("nat", 2 * n),
    "bool_flip_tower": lambda m: ("bool", False),
    "nested_lambdas": lambda depth: ("fun",),
    "pair_tower": lambda depth: ("nat", depth),
}


def family_text(name: str, size: int) -> str:
    """The ``benchmarks/workloads.py`` program ``name(size)`` as surface text."""
    from repro.surface import to_surface

    if str(ROOT / "benchmarks") not in sys.path:
        sys.path.insert(0, str(ROOT / "benchmarks"))
    import workloads

    return to_surface(getattr(workloads, name)(size))


def stratified(rng: random.Random, count: int, low: int, high: int, log: bool = False,
               jitter: float = 1.0) -> list[int]:
    """``count`` sizes in ``[low, high]``, one uniform draw per stratum.

    ``jitter`` narrows each draw to that share of its stratum, centred, for
    families whose cost grows fast enough with size that a full-stratum
    draw would move a run's aggregate from seed to seed.
    """
    lo, hi = (math.log(low), math.log(high + 1)) if log else (low, high + 1)
    sizes = []
    for index in range(count):
        offset = 0.5 + (rng.random() - 0.5) * jitter
        point = lo + (index + offset) * (hi - lo) / count
        sizes.append(min(high, int(math.exp(point) if log else point)))
    return sizes


def family(rng: random.Random, name: str, count: int, low: int, high: int, log: bool = False,
           jitter: float = 1.0) -> list[Program]:
    return [
        Program(f"{name}({size})", name, size, family_text(name, size), ANSWERS[name](size))
        for size in stratified(rng, count, low, high, log, jitter)
    ]


#: Generated programs are picked to lengths (characters) spread evenly over
#: this range, so every seed's slice has the same length profile and one
#: seed's unusually large or small draw cannot move a run.
GENERATED_CHARS = (35, 260)

#: Candidates drawn per generated program picked.
GENERATED_DRAW = 6


def generated_texts(seed: int, count: int) -> list[str]:
    """``count`` closed programs from ``gen.jobs.job_corpus``, shortest first.

    For each of ``count`` target lengths, evenly spaced over
    :data:`GENERATED_CHARS`, the unused candidate nearest in length is taken.
    """
    from repro.gen.jobs import job_corpus

    specs = job_corpus(seed, count=GENERATED_DRAW * count, kinds=("run",))
    unused = [spec["program"] for spec in specs]
    low, high = GENERATED_CHARS
    picked = []
    for index in range(count):
        target = low + (index + 0.5) * (high - low) / count
        text = min(unused, key=lambda candidate: abs(len(candidate) - target))
        unused.remove(text)
        picked.append(text)
    return picked


def generated(seed: int, count: int) -> list[Program]:
    """A ``gen.jobs.job_corpus`` slice, referenced by CC-side normalization."""
    from repro import api

    session = api.Session(name="perfbench-reference")
    programs = []
    for index, text in enumerate(generated_texts(seed, count)):
        normal = session.normalize(text).value
        programs.append(Program(f"gen{seed}.{index}", "gen", len(text), text, cc_shape(normal)))
    return programs


def cold_verify_programs(seed: int) -> list[Program]:
    rng = random.Random(f"cold_verify:{seed}")
    programs = (
        family(rng, "nested_lambdas", 34, 6, 22)
        + family(rng, "church_sum", 27, 2, 10)
        + family(rng, "pair_tower", 27, 4, 30)
        + generated(seed, 20)
    )
    rng.shuffle(programs)
    return programs


def exec_heavy_programs(seed: int) -> list[Program]:
    rng = random.Random(f"exec_heavy:{seed}")
    programs = (
        family(rng, "bool_flip_tower", 16, 5, 12)
        + family(rng, "nat_sum", 24, 20, 300, log=True, jitter=0.25)
    )
    rng.shuffle(programs)
    return programs


def pool_corpus(seed: int) -> list[dict]:
    """The mixed-kind job corpus of the pooled workloads.

    A ``job_corpus`` slice over every program kind plus execution-heavy
    family jobs and one ``shared_dag_tower``; half the specs (the tower
    always) travel on the binary wire.  Every spec carries one of eight
    affinity keys.
    """
    from repro.gen.dag import shared_dag_tower
    from repro.gen.jobs import binary_specs
    from repro.surface import to_surface

    rng = random.Random(f"pool:{seed}")
    # Generated programs ride the kinds whose warm cost is a memo or
    # artifact hit; the kinds that re-run closure conversion warm (compile,
    # run) ride family programs of fixed sizes, whose cost does not depend
    # on the seed's draw.
    kinds = ("normalize", "check", "compile_py")
    specs = [
        {"kind": kinds[index % len(kinds)], "program": text}
        for index, text in enumerate(generated_texts(seed, 20))
    ]
    for kind, name, count, low, high in (
        ("run", "nat_sum", 6, 8, 64),
        ("run", "bool_flip_tower", 4, 3, 6),
        ("compile", "pair_tower", 6, 3, 8),
        ("compile", "nested_lambdas", 6, 3, 8),
        ("compile_py", "church_sum", 5, 2, 6),
        ("compile_py", "nat_sum", 4, 8, 64),
    ):
        for program in family(rng, name, count, low, high, log=high - low + 1 != count):
            specs.append({"kind": kind, "program": program.text})
    tower = to_surface(shared_dag_tower(levels=5, salt=rng.randint(2, 9)))
    specs.append({"kind": "normalize", "program": tower})
    # Keys and wires are dealt round-robin in program-size order, so every
    # key (and so every worker) and each wire gets a like share of small
    # and large jobs whatever the seed drew.
    by_size = sorted(range(len(specs)), key=lambda i: (len(specs[i]["program"]), i))
    for rank, index in enumerate(by_size):
        specs[index]["key"] = f"k{rank % 8}"
        specs[index]["binary"] = rank % 2 == 1 or specs[index]["program"] == tower
    rng.shuffle(specs)
    chosen = [index for index, spec in enumerate(specs) if spec.pop("binary")]
    encoded = dict(zip(chosen, binary_specs([specs[i] for i in chosen])))
    return [dict(encoded.get(index, spec)) for index, spec in enumerate(specs)]


def machine_shape(value) -> tuple:
    """The observation of a machine (or compiled-backend) value."""
    name = type(value).__name__
    if name == "MBool":
        return ("bool", value.value)
    if name == "MNat":
        return ("nat", value.value)
    if name == "MClo":
        return ("fun",)
    if name == "MPair":
        return ("pair", machine_shape(value.first), machine_shape(value.second))
    if name == "MType":
        return ("type",)
    return ("other", name)


def cc_shape(term) -> tuple:
    """The observation of a CC normal form, comparable with machine_shape."""
    from repro import cc

    if isinstance(term, cc.BoolLit):
        return ("bool", term.value)
    if isinstance(term, (cc.Zero, cc.Succ)):
        count = 0
        while isinstance(term, cc.Succ):
            term, count = term.pred, count + 1
        return ("nat", count) if isinstance(term, cc.Zero) else ("other", "succ")
    if isinstance(term, cc.Lam):
        return ("fun",)
    if isinstance(term, cc.Pair):
        return ("pair", cc_shape(term.fst_val), cc_shape(term.snd_val))
    if isinstance(term, (cc.Star, cc.Box, cc.Pi, cc.Sigma, cc.Nat, cc.Bool)):
        return ("type",)
    return ("other", type(term).__name__)
