"""Seeded request streams for the benchmark workloads.

Nothing here imports braidpoly: the program under test only ever sees
the braid text or argv these streams produce.

Each workload repeats a fixed cycle of 20 slots, and the seed draws the
input of every slot afresh on every cycle.  Slots far from the median
and the 90th percentile draw freely (shapes, exponents, signs, q,
output format).  The slots around those two percentiles have fixed
shapes and draw only the sign or the output format, so every seed
gives the same costs where the percentiles fall.  They are ladders,
each step some 10-20% dearer than the last, smaller than the CPU-speed
drift of a shared 2-core VM (up to 1.5x within minutes), so a slower
run moves the percentiles smoothly.  verify-enum's ladder is the
densest: it holds its only requests of 100-550 ms.
"""

from __future__ import annotations

import random
from typing import Iterator

WORKLOADS = ("det-large", "cli-small", "verify-enum")

# One line each; copied into BENCHMARK.json as the workload's "why".
WHY = {
    "det-large": (
        "jones_via_det, family words of 40-100 crossings: 2-3 generators (tall) and "
        "5-10 (wide), both signs, plus ROADMAP anchors; the determinant and Laurent "
        "ring ops do nearly all the work"
    ),
    "cli-small": (
        "python -m braidpoly.cli processes: jones/bracket --method det, text and json, "
        "family words of 1-12 crossings on 2-5 strands, both signs, plus kauffman q 1-40; "
        "start-up and front stages dominate"
    ),
    "verify-enum": (
        "in-process cross-checks at 12-17 crossings: statesum, trees, matchings, on "
        "family and mixed-sign words with repeated generators, plus K2q by all three "
        "methods at q 2-57; many tiny products"
    ),
}

# The ROADMAP baseline rows; the 320-crossing row is left out (36 s).
ANCHORS = (
    ("2x20", ((1, 20), (2, 20))),
    ("2x40", ((1, 40), (2, 40))),
    ("10x10", tuple((i, 10) for i in range(1, 11))),
    ("2x80", ((1, 80), (2, 80))),
)

K2Q_METHODS = ("skein", "prop", "closed")


def word_text(syllables) -> str:
    return " ".join(f"s{i}^{m}" for i, m in syllables)


def family_word(rng: random.Random, gens: tuple[int, int], exps: tuple[int, int]) -> str:
    """s1^m1 ... sk^mk with one sign; k and each m drawn from the ranges."""
    sign = rng.choice((1, -1))
    count = rng.randint(*gens)
    return word_text((i, sign * rng.randint(*exps)) for i in range(1, count + 1))


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    """``total`` split into ``parts`` positive integers, uniformly."""
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def mixed_word(rng: random.Random, crossings: int) -> str:
    """A non-family word: mixed signs, generators repeated out of order.

    Every generator of the braid appears, so the closure is never split.
    """
    strands = rng.choice((3, 4))
    gens = list(range(1, strands))
    order = gens + [rng.choice(gens) for _ in range(rng.randint(2, 4))]
    rng.shuffle(order)
    sizes = _composition(rng, crossings, len(order))
    signs = [rng.choice((1, -1)) for _ in order]
    signs[0], signs[1] = 1, -1
    return word_text((g, s * m) for g, s, m in zip(order, signs, sizes))


def signed_shape(rng: random.Random, exponents: tuple[int, ...]) -> str:
    """A family word of fixed shape; only its sign is drawn."""
    sign = rng.choice((1, -1))
    return word_text((i, sign * m) for i, m in enumerate(exponents, start=1))


def family_of_size(rng: random.Random, crossings: int) -> str:
    parts = rng.randint(1, 3)
    sign = rng.choice((1, -1))
    sizes = _composition(rng, crossings, parts)
    return word_text((i, sign * m) for i, m in enumerate(sizes, start=1))


# -------------------------------------------------------------- det-large
# Costs on a shared 2-core VM, Python 3.11:
# 6 small words of 30-60 ms; a ladder of 8 fixed shapes from 90 to 220 ms
# around the median, and the s1^40 s2^40 anchor; a ladder of 4 from 300 to
# 400 ms around the 90th percentile; s1^10 ... s10^10 at ~1.8 s.

def _det(text: str) -> dict:
    return {"kind": "det", "braid": text}


def _det_anchor(name: str):
    syllables = dict(ANCHORS)[name]
    return lambda rng: _det(word_text(syllables))


def _det_family(gens: tuple[int, int], exps: tuple[int, int]):
    return lambda rng: _det(family_word(rng, gens, exps))


def _det_shape(exponents: tuple[int, ...]):
    return lambda rng: _det(signed_shape(rng, exponents))


_SMALL = (
    _det_anchor("2x20"),
    _det_family((2, 2), (20, 24)),
    _det_family((3, 3), (14, 18)),
    _det_family((5, 5), (8, 8)),
)
_LADDER = tuple(_det_shape(e) for e in (
    (24,) * 3, (5,) * 8, (7,) * 7, (26,) * 3, (34,) * 2, (8,) * 7, (38,) * 2, (6,) * 9,
))
_TAIL = tuple(_det_shape(e) for e in ((6,) * 10, (44,) * 2, (9,) * 8, (46,) * 2))

DET_CYCLE = (
    _det_anchor("10x10"), _SMALL[0], _LADDER[0], _SMALL[1], _TAIL[0],
    _LADDER[1], _SMALL[2], _LADDER[2], _det_anchor("2x40"), _TAIL[1],
    _LADDER[3], _SMALL[3], _LADDER[4], _SMALL[1], _TAIL[2],
    _LADDER[5], _SMALL[2], _LADDER[6], _TAIL[3], _LADDER[7],
)

# -------------------------------------------------------------- cli-small
# One process is ~110 ms; kauffman --method prop at q 34-40 adds 50-90 ms,
# a ladder of four around the 90th percentile.


def _cli_det(rng: random.Random) -> dict:
    text = family_word(rng, (1, 4), (1, 3))
    argv = [rng.choice(("jones", "bracket")), "--braid", text, "--method", "det"]
    argv += ["--format", rng.choice(("text", "json"))]
    return {"kind": "cli", "argv": argv}


def _cli_kauffman(qs: tuple[int, int], methods: tuple[str, ...]):
    def make(rng: random.Random) -> dict:
        argv = ["kauffman", "--q", str(rng.randint(*qs)), "--method", rng.choice(methods)]
        if rng.random() < 0.5:
            argv.append("--normalized")
        argv += ["--format", rng.choice(("text", "json"))]
        return {"kind": "cli", "argv": argv}

    return make


_CLI_K_SMALL = _cli_kauffman((1, 20), K2Q_METHODS)
_CLI_K_TAIL = tuple(_cli_kauffman((q, q), ("prop",)) for q in (34, 36, 38, 40))

CLI_CYCLE = (
    _cli_det, _cli_det, _CLI_K_TAIL[0], _cli_det, _cli_det, _CLI_K_SMALL, _cli_det,
    _cli_det, _CLI_K_TAIL[1], _cli_det, _cli_det, _cli_det, _CLI_K_TAIL[2], _cli_det,
    _cli_det, _CLI_K_SMALL, _cli_det, _cli_det, _CLI_K_TAIL[3], _cli_det,
)

# ------------------------------------------------------------ verify-enum
# Costs on a shared 2-core VM, Python 3.11: family shapes of 13, 14 and
# 15 crossings take ~110, ~220 and ~430 ms whatever their signs; K2q by
# all three methods grows smoothly with q, 150 ms at 36 to 550 at 57.
# The VM runs at one of two speeds some 1.4x apart and switches between
# them every few seconds, so a percentile that falls in a block of
# equal costs jumps with the share of time spent at each speed.  A
# cycle therefore holds 4 light requests under 70 ms, a ladder of 15
# from 107 to 550 ms in steps of about 10% that spans both percentiles,
# and one mixed word of 17 crossings at ~2 s.  A mixed word's cost moves
# with its signs (up to 30% at 17 crossings), so the heavy one has fixed
# signs and the seed draws only its mirror image and the flip
# s_i -> s_(n-i), which keep the cost.


def _cross(crossings: int):
    def make(rng: random.Random) -> dict:
        if rng.random() < 0.5:
            return {"kind": "cross", "braid": family_of_size(rng, crossings)}
        return {"kind": "cross", "braid": mixed_word(rng, crossings)}

    return make


def _cross_shape(exponents: tuple[int, ...]):
    return lambda rng: {"kind": "cross", "braid": signed_shape(rng, exponents)}


def _cross_mixed(syllables: tuple[tuple[int, int], ...]):
    top = max(g for g, _ in syllables) + 1

    def make(rng: random.Random) -> dict:
        sign = rng.choice((1, -1))
        flip = rng.random() < 0.5
        word = ((top - g if flip else g, sign * m) for g, m in syllables)
        return {"kind": "cross", "braid": word_text(word)}

    return make


def _k2q(qs: tuple[int, int]):
    return lambda rng: {"kind": "k2q", "q": rng.randint(*qs)}


_LIGHT = (_k2q((2, 30)), _cross(12))
_V_LADDER = (
    _cross_shape((13,)), _cross_shape((7, 6)), _cross_shape((4, 3, 3, 3)),
    _k2q((36, 36)), _k2q((38, 38)), _k2q((40, 40)), _cross_shape((14,)),
    _cross_shape((5, 5, 4)), _cross_shape((3, 3, 3, 3, 2)), _k2q((44, 44)), _k2q((46, 46)),
    _k2q((48, 48)), _cross_shape((15,)), _cross_shape((3, 4, 4, 4)), _k2q((57, 57)),
)
_HEAVY = _cross_mixed(((1, 3), (2, -2), (3, 3), (1, -2), (2, 3), (3, -2), (2, -2)))

VERIFY_CYCLE = (
    _HEAVY, _LIGHT[1], _V_LADDER[0], _V_LADDER[8], _V_LADDER[14],
    _V_LADDER[3], _LIGHT[0], _V_LADDER[11], _V_LADDER[5], _V_LADDER[1],
    _V_LADDER[12], _V_LADDER[6], _LIGHT[1], _V_LADDER[9], _V_LADDER[2],
    _V_LADDER[13], _V_LADDER[4], _LIGHT[0], _V_LADDER[10], _V_LADDER[7],
)

CYCLES = {"det-large": DET_CYCLE, "cli-small": CLI_CYCLE, "verify-enum": VERIFY_CYCLE}


def stream(workload: str, seed: int) -> Iterator[dict]:
    """The workload's requests in order; the same seed gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    cycle = CYCLES[workload]
    while True:
        for slot in cycle:
            yield slot(rng)


def first(workload: str, seed: int, count: int) -> list[dict]:
    requests = stream(workload, seed)
    return [next(requests) for _ in range(count)]
