"""Regenerate the benchmark's reference data from the library.

    python3 perfbench/make_reference.py

Writes perfbench/reference/pyramid2_numerator.json, the K-polynomial
numerator the groebner workload checks every item against, and
perfbench/reference/step0_n4.json, the eliminated equations of the
r=3, n=4 partitions whose step0 keeps equations, which the membership
workload builds bases for. Stored, so that membership set-up time is
basis building rather than the ~10 s of elimination that finds them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hilb.groebner import Ideal  # noqa: E402
from hilb.kpoly import kpoly_monomial  # noqa: E402
from hilb.localeq import jacobian_ideal, pyramid_potential, step0, var_weight  # noqa: E402
from hilb.partitions import enumerate_partitions  # noqa: E402


def numerator() -> dict:
    F, variables = pyramid_potential(2)
    J = Ideal(F.ring, jacobian_ideal(F)).initial_ideal("grevlex")
    K = kpoly_monomial(J, [var_weight(v) for v in variables])
    if any(w.scale != 1 for w in K.terms):
        raise ValueError("the numerator has a fractional exponent")
    return {
        "ideal": "jacobian_ideal(pyramid_potential(2)), the local equations at (1) < (2,1)",
        "weights": "var_weight of the 18 Haiman variables, in any variable order",
        "format": "[w1, w2, w3, coefficient] per term of the K-polynomial numerator",
        "numerator": sorted([*w.nums, c] for w, c in K.terms.items()),
    }


def step0_n4() -> dict:
    ideals = []
    for lam in enumerate_partitions(3, 4):
        pres = step0(lam)
        if not pres.equations:
            continue
        equations = []
        for eq in pres.equations:
            terms = []
            for e, c in sorted(eq.terms.items()):
                factors = [k for k, x in enumerate(e) for _ in range(x)]
                terms.append([f"{c.numerator}/{c.denominator}", factors])
            equations.append(terms)
        ideals.append(
            {
                "cells": [list(c) for c in sorted(lam.cells)],
                "vars": list(pres.ring.names),
                "equations": equations,
            }
        )
    return {
        "source": "step0(lam) for every r=3, n=4 partition lam with equations left",
        "format": "each term is [coefficient, variable indices with multiplicity]",
        "ideals": ideals,
    }


def _lines(value, indent: str = "") -> list:
    """JSON text: a dict one key per line, a list of lists or dicts one entry per line."""
    inner = indent + "  "
    if isinstance(value, dict):
        entries = [
            [f"{json.dumps(k)}: {lines[0]}"] + lines[1:]
            for k, lines in ((k, _lines(v, inner)) for k, v in value.items())
        ]
        brackets = "{}"
    elif isinstance(value, list) and value and isinstance(value[0], (list, dict)):
        entries = [_lines(v, inner) if isinstance(v, dict) else [json.dumps(v)] for v in value]
        brackets = "[]"
    else:
        return [json.dumps(value)]
    out = [brackets[0]]
    for i, lines in enumerate(entries):
        lines = [inner + lines[0]] + lines[1:]
        if i < len(entries) - 1:
            lines[-1] += ","
        out += lines
    return out + [indent + brackets[1]]


def dump(path: Path, data: dict):
    # one term or equation per line keeps the files reviewable
    path.write_text("\n".join(_lines(data)) + "\n")


if __name__ == "__main__":
    dump(HERE / "reference" / "pyramid2_numerator.json", numerator())
    dump(HERE / "reference" / "step0_n4.json", step0_n4())
