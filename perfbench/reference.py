"""Answers the benchmark checks against, computed without braidpoly.

Polynomials are plain dicts: exponent -> coefficient for one variable,
(a exponent, z exponent) -> coefficient for two.

Bracket of a family word.  The closure of s1^m1 ... sk^mk is the
connected sum of the (2, mi) torus links, and the bracket is
multiplicative under connected sum, so it is the product of

    <T(2,q)> = A^q d + sum_{k=1..q} C(q,k) A^(q-2k) d^(k-1),  d = -A^2 - A^-2,

with A -> A^-1 for negative q.  Jones multiplies by (-1)^w A^(-3w).

Two-variable (2, q) value, by the crossing-switch recursion

    K(0) = (a + a^-1) z^-1 - 1,  K(1) = a^-1,
    K(q) = a^(q-1) z + z K(q-1) - K(q-2).

Renderers reproduce the CLI's text and JSON output byte for byte, so
the benchmark checks the exact stdout, not only the value.
"""

from __future__ import annotations

import json
import re
from math import comb

_DELTA = {2: -1, -2: -1}
_TOKEN = re.compile(r"s(\d+)(?:\^(-?\d+))?$")


def _clean(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


def mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = e1 + e2 if isinstance(e1, int) else (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return _clean(out)


def add(p: dict, q: dict, scale: int = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + scale * c
    return _clean(out)


def parse_word(text: str) -> list[tuple[int, int]]:
    syllables = []
    for token in text.split():
        m = _TOKEN.match(token)
        if m is None:
            raise ValueError(f"bad token {token!r}")
        syllables.append((int(m.group(1)), int(m.group(2) or 1)))
    return syllables


def is_family(syllables) -> bool:
    gens = [i for i, _ in syllables]
    return gens == list(range(1, len(gens) + 1)) and len({m > 0 for _, m in syllables}) == 1


_TORUS: dict[int, dict[int, int]] = {}


def torus_bracket(q: int) -> dict[int, int]:
    """<T(2,q)> for q != 0."""
    if q in _TORUS:
        return _TORUS[q]
    if q < 0:
        value = {-e: c for e, c in torus_bracket(-q).items()}
    else:
        value = mul({q: 1}, _DELTA)
        delta_pow = {0: 1}
        for k in range(1, q + 1):
            value = add(value, mul({q - 2 * k: comb(q, k)}, delta_pow))
            delta_pow = mul(delta_pow, _DELTA)
    _TORUS[q] = value
    return value


def family_bracket(syllables) -> dict[int, int]:
    out = {0: 1}
    for _, m in syllables:
        out = mul(out, torus_bracket(m))
    return out


def writhe_factor(writhe: int) -> dict[int, int]:
    return {-3 * writhe: -1 if writhe % 2 else 1}


def family_jones(syllables) -> dict[int, int]:
    return mul(writhe_factor(sum(m for _, m in syllables)), family_bracket(syllables))


_K2Q: list[dict] = [{(1, -1): 1, (-1, -1): 1, (0, 0): -1}, {(-1, 0): 1}]


def k2q(q: int) -> dict[tuple[int, int], int]:
    while len(_K2Q) <= q:
        n = len(_K2Q)
        step = add(mul({(0, 1): 1}, _K2Q[n - 1]), _K2Q[n - 2], scale=-1)
        _K2Q.append(add(step, {(n - 1, 1): 1}))
    return _K2Q[q]


def f2q(q: int) -> dict[tuple[int, int], int]:
    return mul({(-q, 0): 1}, k2q(q))


# ---------------------------------------------------------------- rendering

def _monomial(coeff: int, var: str, exp: int) -> str:
    if exp == 0:
        return str(coeff)
    head = "" if coeff == 1 else str(coeff)
    return head + (var if exp == 1 else f"{var}^{exp}")


def _join(coeff: int, body: str, first: bool) -> str:
    if first:
        return body if coeff > 0 else "-" + body
    return f" + {body}" if coeff > 0 else f" - {body}"


def text1(terms: dict[int, int]) -> str:
    if not terms:
        return "0"
    parts: list[str] = []
    for e in sorted(terms, reverse=True):
        parts.append(_join(terms[e], _monomial(abs(terms[e]), "A", e), not parts))
    return "".join(parts)


def json1(terms: dict[int, int]) -> dict:
    return {"variable": "A", "terms": [{"exp": e, "coeff": terms[e]} for e in sorted(terms)]}


def text2(terms: dict[tuple[int, int], int]) -> str:
    if not terms:
        return "0"
    groups: dict[int, dict[int, int]] = {}
    for (ea, ez), c in terms.items():
        groups.setdefault(ez, {})[ea] = c
    parts: list[str] = []
    for ez in sorted(groups):
        group = groups[ez]
        zpart = "" if ez == 0 else (" z" if ez == 1 else f" z^{ez}")
        if len(group) == 1:
            ((ea, c),) = group.items()
            body = _monomial(abs(c), "a", ea) + zpart
            if zpart and ea == 0 and abs(c) == 1:
                body = zpart.strip()
            parts.append(_join(c, body, not parts))
            continue
        negate = all(c < 0 for c in group.values())
        inner: list[str] = []
        for ea in sorted(group, reverse=True):
            c = -group[ea] if negate else group[ea]
            inner.append(_join(c, _monomial(abs(c), "a", ea), not inner))
        parts.append(_join(-1 if negate else 1, f"({''.join(inner)}){zpart}", not parts))
    return "".join(parts)


def json2(terms: dict[tuple[int, int], int]) -> dict:
    return {
        "variables": ["a", "z"],
        "terms": [{"a": ea, "z": ez, "coeff": terms[(ea, ez)]} for ea, ez in sorted(terms)],
    }


def cli_stdout(argv: list[str]) -> str:
    """Exact stdout of ``braidpoly <argv>`` for the commands the benchmark sends."""
    opts = {
        tok: argv[i + 1] if i + 1 < len(argv) and not argv[i + 1].startswith("--") else True
        for i, tok in enumerate(argv)
        if tok.startswith("--")
    }
    json_format = opts.get("--format") == "json"
    if argv[0] == "kauffman":
        q = int(opts["--q"])
        value = f2q(q) if "--normalized" in argv else k2q(q)
        return render(value, json2, text2, json_format)
    syllables = parse_word(opts["--braid"])
    value = family_jones(syllables) if argv[0] == "jones" else family_bracket(syllables)
    return render(value, json1, text1, json_format)


def render(value: dict, as_json, as_text, json_format: bool) -> str:
    return (json.dumps(as_json(value), indent=2) if json_format else as_text(value)) + "\n"
