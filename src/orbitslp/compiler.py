"""Compile a polynomial group action into one orbit-separating program.

The group lives in affine l-space as the zero set of its defining
equations; the action on affine n-space is given by a matrix of
polynomials in the group coordinates.  For a point p, the coordinates of
the moved point pull back to polynomials sigma_j = sum_k rho_jk * p_k on
the group, and the algebraic relations (up to a degree bound) among the
monomials in these pullbacks cut out the orbit closure.  The compiler
emits one branch-free program that computes, for each working degree, the
canonical kernel of a relation matrix whose columns are the tracked
monomial images next to a constant basis of the group ideal's degree
slice.  The concatenated kernel projections are the point's signature:
equal signatures mean equal orbits, and each signature entry is a
constructible function of the input coordinates.

The emitted instruction stream depends only on the specs, never on any
point, so signatures of different points are always comparable.
"""

import hashlib
import json
import os
from dataclasses import dataclass
from math import comb

from .groebner import buchberger, hilbert_leq, ideal_k_basis
from .linalg import collect_cells, kernel_cells, trref_cells
from .polynomials import (MonomialIndex, coeff_vector, monomial_mul,
                          parse_polynomial)
from .slp import ProgramBuilder, census, execute, program_from_dict, program_to_dict

DEFAULT_CELL_CAP = 20000
CELL_CAP_ENV = "ORBITSLP_CELL_CAP"


class CompileError(RuntimeError):
    """Inconsistent specs or an impossible compilation request."""


class CellCapError(CompileError):
    """A relation matrix would exceed the configured cell ceiling."""


def _spec_fields(obj, kind, *keys):
    """Values of the required keys of a JSON spec object, in order."""
    if not isinstance(obj, dict):
        raise CompileError(f"a {kind} spec must be a JSON object")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise CompileError(f"the {kind} spec lacks {', '.join(missing)}")
    return [obj[k] for k in keys]


@dataclass(frozen=True)
class GroupSpec:
    """Embedded algebraic group: ambient dimension, dimension, equations."""

    ambient_dim: int
    group_dim: int
    var_names: tuple
    generators: tuple

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise CompileError("ambient dimension must be positive")
        if not 0 <= self.group_dim <= self.ambient_dim:
            raise CompileError("group dimension must lie in 0..ambient_dim")
        if len(self.var_names) != self.ambient_dim:
            raise CompileError("need one variable name per ambient coordinate")
        for g in self.generators:
            if not g:
                raise CompileError("zero polynomial among the group equations")
            if g.nvars != self.ambient_dim:
                raise CompileError("group equation in the wrong number of variables")
        if not self.generators and self.group_dim != self.ambient_dim:
            raise CompileError(
                "a group with no equations is the whole affine space; "
                "its dimension must equal the ambient dimension")

    @property
    def field(self):
        return self.generators[0].field if self.generators else None

    @property
    def equation_degree(self):
        """Largest total degree among the defining equations (1 if none)."""
        return max((g.degree() for g in self.generators), default=1)

    @classmethod
    def from_json_dict(cls, obj, field):
        ambient, dim, names, gens = _spec_fields(
            obj, "group", "ambient_dim", "group_dim", "vars", "generators")
        names = tuple(names)
        gens = tuple(parse_polynomial(s, names, field) for s in gens)
        return cls(int(ambient), int(dim), names, gens)

    def to_json_dict(self):
        return {
            "ambient_dim": self.ambient_dim,
            "group_dim": self.group_dim,
            "vars": list(self.var_names),
            "generators": [g.to_string(self.var_names) for g in self.generators],
        }


@dataclass(frozen=True)
class RepSpec:
    """Action matrix: dim x dim polynomials in the group coordinates."""

    dim: int
    matrix: tuple

    def __post_init__(self):
        if self.dim < 1:
            raise CompileError("representation dimension must be positive")
        if len(self.matrix) != self.dim or any(len(r) != self.dim for r in self.matrix):
            raise CompileError(f"action matrix must be {self.dim}x{self.dim}")

    @property
    def field(self):
        return self.matrix[0][0].field

    @property
    def entry_degree(self):
        """Largest total degree among the matrix entries (0 if constant)."""
        return max((e.degree() for row in self.matrix for e in row if e), default=0)

    @classmethod
    def from_json_dict(cls, obj, group, field):
        n, rho = _spec_fields(obj, "rep", "n", "rho")
        rows = tuple(
            tuple(parse_polynomial(s, group.var_names, field) for s in row)
            for row in rho)
        return cls(int(n), rows)

    def to_json_dict(self, var_names):
        return {"n": self.dim,
                "rho": [[e.to_string(var_names) for e in row] for row in self.matrix]}


@dataclass(frozen=True)
class OrbitParams:
    """Tuning knobs: maximal orbit dimension and an optional bound override."""

    max_orbit_dim: int = None
    bound_override: int = None

    def to_json_dict(self):
        return {"r": self.max_orbit_dim, "bound_override": self.bound_override}


def degree_bound(group, rep, params=None):
    """Working-degree bound N^r * M^(l-m) for the orbit closure equations.

    N is the action degree, M the group equation degree, r the maximal
    orbit dimension (defaults to min(group dim, space dim)).  Clamped to
    at least 1 so degree-one relations are always examined.
    """
    params = params or OrbitParams()
    r = params.max_orbit_dim
    if r is None:
        r = min(group.group_dim, rep.dim)
    if not 0 <= r <= min(group.group_dim, rep.dim):
        raise CompileError(f"orbit dimension {r} out of range "
                           f"0..{min(group.group_dim, rep.dim)}")
    if params.bound_override is not None:
        if params.bound_override < 1:
            raise CompileError("degree bound override must be >= 1")
        return params.bound_override
    n_deg = max(rep.entry_degree, 0)
    m_deg = group.equation_degree
    return max(1, n_deg ** r * m_deg ** (group.ambient_dim - group.group_dim))


class CompiledSeparator:
    """A compiled separator: the program plus its metadata."""

    def __init__(self, program, meta):
        self.program = program
        self.meta = meta

    @property
    def signature_length(self):
        return self.program.output_arity

    def to_dict(self):
        return {"format": "orbitslp-separator", "version": 1,
                "program": program_to_dict(self.program), "metadata": self.meta}

    @classmethod
    def from_dict(cls, obj):
        if (not isinstance(obj, dict) or obj.get("format") != "orbitslp-separator"
                or obj.get("version") != 1 or not isinstance(obj.get("metadata"), dict)):
            raise CompileError("not an orbitslp separator file")
        return cls(program_from_dict(obj.get("program")), obj["metadata"])

    def dumps(self):
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def save(self, path):
        with open(path, "w") as fh:
            fh.write(self.dumps())
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def resolve_cell_cap(explicit=None):
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(CELL_CAP_ENV)
    if env:
        return int(env)
    return DEFAULT_CELL_CAP


def _check_cells(i, rows, cols, cap, at_least=False):
    """Refuse iteration i's rows x cols relation matrix above the ceiling."""
    if rows * cols > cap:
        raise CellCapError(
            f"iteration {i} needs {'at least ' if at_least else ''}a {rows}x{cols} "
            f"relation matrix ({rows * cols} cells) but the ceiling is {cap}")


def _pullback_cells(b, rep):
    """Sparse cell form of each moved coordinate's pullback.

    Entry j maps a group monomial to the cell holding its coefficient in
    sigma_j = sum_k rho_jk * p_k: a constant-coefficient combination of
    the input cells.
    """
    ins = b.inputs()
    out = []
    for j in range(rep.dim):
        acc = {}
        for k in range(rep.dim):
            for mono, c in rep.matrix[j][k].sorted_terms():
                term = b.mul(b.const(c), ins[k])
                acc[mono] = b.add(acc[mono], term) if mono in acc else term
        out.append(dict(sorted(acc.items())))
    return out


def _spread_product(b, sparse, vec, idx_from, idx_to):
    """Coefficient vector of (sparse polynomial) * (vector polynomial).

    Bilinear convolution over the monomial indexes; structurally zero
    cells contribute nothing, and the accumulation order is fixed.
    """
    out = [b.zero] * len(idx_to)
    for mono, c1 in sparse.items():
        for r, c2 in enumerate(vec):
            if b.is_zero_cell(c2):
                continue
            t = idx_to.index(monomial_mul(mono, idx_from.at(r)))
            out[t] = b.add(out[t], b.mul(c1, c2))
    return out


def compile_separator(group, rep, params=None, cell_cap=None):
    """Emit the orbit-separating program for the given action.

    Pure function of the specs: recompiling yields a byte-identical
    artifact, and the instruction stream never depends on point values.
    """
    params = params or OrbitParams()
    f = group.field or rep.field
    if group.field is not None and group.field != rep.field:
        raise CompileError("group equations and action use different fields")
    l = group.ambient_dim
    n = rep.dim
    for row in rep.matrix:
        for e in row:
            if e.nvars != l:
                raise CompileError("action entries must use the group coordinates")
    n_deg = max(rep.entry_degree, 0)
    d_max = degree_bound(group, rep, params)
    cap = resolve_cell_cap(cell_cap)

    gb = buchberger(group.generators, nvars=l, field=f)
    if any(g.degree() == 0 for g in gb):
        raise CompileError("the group equations have no common zero")
    h_dims = [hilbert_leq(gb, 0)]

    # Each iteration's tracked column count is known before its row index is
    # built, so the size checks run on binomial counts before any allocation.
    _check_cells(1, comb(l + n_deg, l), n + 1, cap, at_least=True)
    idx = MonomialIndex(l, n_deg)
    b = ProgramBuilder(f, n)
    sigma = _pullback_cells(b, rep)
    # degree-zero image: the constant function 1
    unit_vec = [b.one] + [b.zero] * (len(idx) - 1)
    tracked = [unit_vec]
    for j in range(n):
        vec = [b.zero] * len(idx)
        for mono, cell in sigma[j].items():
            vec[idx.index(mono)] = cell
        tracked.append(vec)

    signature = []
    iterations = []
    setup_end = b.position
    for i in range(1, d_max + 1):
        nrows = len(idx)
        k_i = len(tracked)
        h_dims.append(hilbert_leq(gb, i * n_deg))
        # the ideal slice has nrows - h_i elements (dimension identity)
        _check_cells(i, nrows, k_i + nrows - h_dims[i], cap)
        for vec in tracked:
            vec.extend([b.zero] * (nrows - len(vec)))
        ideal_cols = [[b.const(c) for c in coeff_vector(p, idx)]
                      for p in ideal_k_basis(gb, i * n_deg)]
        t_i = k_i + len(ideal_cols)
        cols = tracked + ideal_cols
        xrows = [[col[r] for col in cols] for r in range(nrows)]
        marks = {"start": b.position}
        grid = trref_cells(b, xrows)
        marks["trref"] = b.position
        kernel = kernel_cells(b, grid)
        marks["kernel"] = b.position
        sig_offset = len(signature)
        for t in range(t_i):
            signature.extend(kernel[t][:k_i])
        record = {
            "i": i,
            "rows": nrows,
            "tracked_cols": k_i,
            "ideal_cols": len(ideal_cols),
            "h_dim": h_dims[i],
            "sig_offset": sig_offset,
            "sig_len": t_i * k_i,
        }
        if i < d_max:
            # keep the independent image vectors for the next degree
            flags = [grid[c][c] for c in range(k_i)]
            support = sum(
                1 for r in range(nrows)
                if any(not b.is_zero_cell(col[r]) for col in tracked))
            live = min(k_i, h_dims[i], support)
            kept = collect_cells(b, flags, tracked, limit=live)
            kept += [[b.zero] * nrows for _ in range(h_dims[i] - live)]
            marks["collect"] = b.position
            # multiply the pullbacks with the vectors new at this degree;
            # slots that are provably zero for every input grow no products
            new = range(h_dims[i - 1], live)
            _check_cells(i + 1, comb(l + (i + 1) * n_deg, l),
                         len(kept) + n * len(new), cap, at_least=True)
            next_idx = MonomialIndex(l, (i + 1) * n_deg)
            products = [_spread_product(b, sigma[j], kept[s_idx], idx, next_idx)
                        for j in range(n) for s_idx in new]
            marks["products"] = b.position
            record["live_slots"] = live
            tracked = kept + products
            idx = next_idx
        phases = {"trref": marks["trref"] - marks["start"],
                  "kernel": marks["kernel"] - marks["trref"]}
        if i < d_max:
            phases["collect"] = marks["collect"] - marks["kernel"]
            phases["products"] = marks["products"] - marks["collect"]
        record["phases"] = phases
        iterations.append(record)

    group_json = group.to_json_dict()
    rep_json = rep.to_json_dict(group.var_names)
    program = b.finish(signature)
    meta = {
        "n": n,
        "ambient_dim": l,
        "group_dim": group.group_dim,
        "rep_degree": n_deg,
        "group_degree": group.equation_degree,
        "max_orbit_dim": params.max_orbit_dim
            if params.max_orbit_dim is not None else min(group.group_dim, n),
        "d_max": d_max,
        "h_table": h_dims,
        "signature_length": len(signature),
        "setup_len": setup_end,
        "iterations": iterations,
        "cell_cap": cap,
        "spec_digest": {"group": _digest(group_json), "rep": _digest(rep_json),
                        "params": _digest(params.to_json_dict())},
    }
    return CompiledSeparator(program, meta)


def evaluate(sep, point):
    """Signature of a point: the separator's outputs at those coordinates."""
    f = sep.program.field
    if len(point) != sep.program.input_arity:
        raise ValueError(
            f"point has {len(point)} coordinates, expected {sep.program.input_arity}")
    return execute(sep.program, [f.coerce(x) for x in point])


def separate(sep, p, q):
    """True when the two points have identical signatures (same orbit)."""
    return evaluate(sep, p) == evaluate(sep, q)


def signature_hash(sep, sig):
    f = sep.program.field
    text = ";".join(f.fmt(v) for v in sig)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def orbit_oracle_finite(group, rep, elements, p, q):
    """Ground truth for finite groups: is q among the images of p?

    Every listed element must satisfy the group equations; the orbit is
    enumerated by evaluating the action matrix at each element.
    """
    f = rep.field
    p = [f.coerce(x) for x in p]
    q = [f.coerce(x) for x in q]
    n = rep.dim
    for g in elements:
        g = [f.coerce(x) for x in g]
        for h in group.generators:
            if h.eval_at(g) != f.zero:
                raise ValueError(
                    f"element {g} does not satisfy {h.to_string(group.var_names)} = 0")
        moved = []
        for j in range(n):
            acc = f.zero
            for k in range(n):
                acc = f.add(acc, f.mul(rep.matrix[j][k].eval_at(g), p[k]))
            moved.append(acc)
        if moved == q:
            return True
    return False


def stats(sep):
    """Instruction accounting for a compiled separator."""
    counts = census(sep.program)
    meta = sep.meta
    phase_totals = {}
    for rec in meta["iterations"]:
        for name, length in rec["phases"].items():
            phase_totals[name] = phase_totals.get(name, 0) + length
    phase_totals["setup"] = meta["setup_len"]
    phase_totals["recall"] = counts["recall"]
    return {
        "instruction_total": counts["total"],
        "census": counts,
        "signature_length": meta["signature_length"],
        "d_max": meta["d_max"],
        "rep_degree": meta["rep_degree"],
        "group_degree": meta["group_degree"],
        "max_orbit_dim": meta["max_orbit_dim"],
        "h_table": meta["h_table"],
        "iterations": meta["iterations"],
        "phase_totals": phase_totals,
    }
