"""Benchmark inputs: the fixed action corpus, seeded point streams, oracles.

The oracles here never run a compiled program.  Same-orbit verdicts for the
weighted torus come from its invariant, and the cyclic group's verdicts from
brute-force orbit enumeration, so a wrong separator shows up as a wrong
verdict instead of agreeing with itself.

Run as a script (`python3 bench/corpus.py [SCRATCH_DIR]`), this module
compiles the corpus once and prints the count table as JSON; the benchmark
starts it in a child process with a different hash seed to check that
compilation is deterministic across processes.
"""

import hashlib
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import orbitslp  # noqa: E402
from orbitslp import GF, QQ, GroupSpec, RepSpec, compiler, stats  # noqa: E402

if Path(orbitslp.__file__).resolve().parent != SRC / "orbitslp":
    raise ImportError(f"orbitslp must be imported from {SRC}, "
                      f"found {orbitslp.__file__}")

TORUS = {"ambient_dim": 2, "group_dim": 1, "vars": ["z1", "z2"],
         "generators": ["z1*z2 - 1"]}
CYCLIC3 = {"ambient_dim": 1, "group_dim": 0, "vars": ["z"],
           "generators": ["z^3 - 1"]}
# rho = diag(z1^2, z1): (x, y) -> (t^2 x, t y), the 350k-instruction action
DIAG21_REP = {"n": 2, "rho": [["z1^2", "0"], ["0", "z1"]]}
GF101 = GF(101)
GF7 = GF(7)

# (name, group spec, rep spec, field): the four test-suite fixtures, SO(2),
# the (1,-1) and (1,2) weighted tori, and diag(z1^2, z1) over QQ and GF(101)
CORPUS_SPECS = (
    ("torus", TORUS, {"n": 2, "rho": [["z1", "0"], ["0", "z1"]]}, QQ),
    ("sign", {"ambient_dim": 1, "group_dim": 0, "vars": ["z"],
              "generators": ["z^2 - 1"]}, {"n": 1, "rho": [["z"]]}, QQ),
    ("cyclic3-gf7", CYCLIC3, {"n": 2, "rho": [["z", "0"], ["0", "z"]]}, GF7),
    ("trivial", {"ambient_dim": 2, "group_dim": 0, "vars": ["z1", "z2"],
                 "generators": ["z1", "z2"]},
     {"n": 2, "rho": [["1", "0"], ["0", "1"]]}, QQ),
    ("so2", {"ambient_dim": 2, "group_dim": 1, "vars": ["c", "s"],
             "generators": ["c^2 + s^2 - 1"]},
     {"n": 2, "rho": [["c", "-s"], ["s", "c"]]}, QQ),
    ("torus-1-m1", TORUS, {"n": 2, "rho": [["z1", "0"], ["0", "z2"]]}, QQ),
    ("torus-1-2", TORUS, {"n": 2, "rho": [["z1", "0"], ["0", "z1^2"]]}, QQ),
    ("diag21-qq", TORUS, DIAG21_REP, QQ),
    ("diag21-gf101", TORUS, DIAG21_REP, GF101),
)


@dataclass(frozen=True)
class Action:
    name: str
    group: GroupSpec
    rep: RepSpec


def parse_action(name, group_json, rep_json, field):
    group = GroupSpec.from_json_dict(group_json, field)
    return Action(name, group, RepSpec.from_json_dict(rep_json, group, field))


def parse_corpus():
    return [parse_action(*spec) for spec in CORPUS_SPECS]


def diag21_action(field):
    return parse_action(f"diag21-{field!r}", TORUS, DIAG21_REP, field)


# ---------------------------------------------------------------------------
# oracles

def weighted_torus_same_orbit(field, weight, p, q):
    """Verdict for (x, y) -> (t^weight x, t y) on points with y, y' nonzero.

    The only candidate group element is t = y'/y, so the points share an
    orbit exactly when x' = (y'/y)^weight x, i.e. x y'^weight = x' y^weight.
    """
    x, y = (field.coerce(v) for v in p)
    x2, y2 = (field.coerce(v) for v in q)
    if y == field.zero or y2 == field.zero:
        raise ValueError("the torus invariant needs nonzero second coordinates")
    return (field.mul(x, field.coerce(y2 ** weight))
            == field.mul(x2, field.coerce(y ** weight)))


def roots_of_unity(field, order):
    """Elements z of a prime field with z^order = 1, by enumeration."""
    return [[z] for z in range(1, field.p) if pow(z, order, field.p) == 1]


def cyclic3_grid(rng, action):
    """A seeded 5x5 grid of GF(7) points and the brute-force verdict matrix."""
    xs = sorted(rng.sample(range(GF7.p), 5))
    ys = sorted(rng.sample(range(GF7.p), 5))
    points = [[x, y] for x in xs for y in ys]
    elements = roots_of_unity(GF7, 3)
    expected = [[compiler.orbit_oracle_finite(action.group, action.rep,
                                              elements, p, q)
                 for q in points] for p in points]
    return points, expected


# ---------------------------------------------------------------------------
# seeded point streams for diag(z1^2, z1)

def _small_rational(rng, nonzero):
    num = rng.randint(-9, 9)
    while nonzero and num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 4))


def _residue(rng, nonzero):
    return rng.randint(1 if nonzero else 0, GF101.p - 1)


def torus_pairs(rng, field):
    """Endless stream of (p, q, same_orbit) for diag(z1^2, z1).

    Pairs alternate: even ones are related by a sampled group element t,
    q = (t^2 x, t y); odd ones are drawn independently.  Second coordinates
    are never zero, which keeps every pair inside the oracle's domain.
    Coordinates are small-height rationals over QQ, residues over GF(p).
    """
    draw = _small_rational if field == QQ else _residue
    related = True
    while True:
        x, y = field.coerce(draw(rng, False)), field.coerce(draw(rng, True))
        if related:
            t = field.coerce(draw(rng, True))
            q = [field.mul(field.mul(t, t), x), field.mul(t, y)]
        else:
            q = [field.coerce(draw(rng, False)), field.coerce(draw(rng, True))]
        p = [x, y]
        yield p, q, weighted_torus_same_orbit(field, 2, p, q)
        related = not related


# ---------------------------------------------------------------------------
# exact counts per separator

def sha256(data):
    return hashlib.sha256(data).hexdigest()


def count_row(sep, saved):
    """Exact counts for one separator; `saved` is its saved file's bytes."""
    st = stats(sep)
    return {
        "instructions": st["instruction_total"],
        "d_max": st["d_max"],
        "shapes": [f"{it['rows']}x{it['tracked_cols'] + it['ideal_cols']}"
                   for it in st["iterations"]],
        "max_matrix_cells": max(it["rows"] * (it["tracked_cols"] + it["ideal_cols"])
                                for it in st["iterations"]),
        "phase_totals": dict(sorted(st["phase_totals"].items())),
        "census": {k: v for k, v in st["census"].items() if k != "total"},
        "signature_length": st["signature_length"],
        "separator_bytes": len(saved),
        "sha256": sha256(saved),
    }


def count_table(tmp):
    """Compile and save every corpus action into the new directory `tmp`,
    which is removed again; returns the count row by action name."""
    tmp.mkdir(parents=True)
    table = {}
    for action in parse_corpus():
        sep = compiler.compile_separator(action.group, action.rep)
        path = tmp / f"{action.name}.json"
        sep.save(path)
        table[action.name] = count_row(sep, path.read_bytes())
        path.unlink()
    tmp.rmdir()
    return table


def format_table(table):
    lines = [f"{'action':<14}{'instr':>8}{'d':>3}{'sig':>5}{'bytes':>9}  "
             "shapes / phase totals / census / sha256"]
    for name, row in table.items():
        lines.append(f"{name:<14}{row['instructions']:>8}{row['d_max']:>3}"
                     f"{row['signature_length']:>5}{row['separator_bytes']:>9}  "
                     f"{' '.join(row['shapes'])}")
        lines.append(" " * 41 + " ".join(
            f"{k}={v}" for k, v in row["phase_totals"].items()))
        lines.append(" " * 41 + " ".join(
            f"{k}={v}" for k, v in row["census"].items()))
        lines.append(" " * 41 + row["sha256"])
    return "\n".join(lines)


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / ".bench_tmp" / "table"
    print(json.dumps(count_table(out)))
