"""Basis families mapping a cell to its design vector.

Inception bases are functions of age only; termination bases are tensor
products of age and duration parts, flattened row-major (age index outer) to
one linear predictor of dimension p.  Custom bases are tabulated per cell.
"""

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .panel import Cell, StudyKind, read_text

RANK_TOLERANCE = 1e-10


@dataclass(frozen=True)
class BasisSet:
    """A family of basis functions with flat dimension p.

    For tensor bases, entry (i, j) of the design vector is
    age_parts[i](x) * dur_parts[j](d), flattened with the age index outer.
    """

    kind: str
    p: int
    age_range: tuple[float, float]
    age_parts: tuple = field(default=(), repr=False)
    dur_parts: tuple = field(default=(), repr=False)
    table: dict | None = field(default=None, repr=False)


def linear2(age_lo=25, age_hi=64):
    """Two linear age factors interpolating the endpoint logits.

    At age_lo the design vector is (1, 0) and at age_hi it is (0, 1), so the
    two latent components are the endpoint logits themselves and every other
    age is a convex combination of them.
    """
    if age_hi <= age_lo:
        raise ValueError("age_hi must exceed age_lo")
    span = float(age_hi - age_lo)
    parts = (
        lambda x: (age_hi - x) / span,
        lambda x: (x - age_lo) / span,
    )
    return BasisSet(kind="linear2", p=2, age_range=(age_lo, age_hi), age_parts=parts)


def piecewise3(midpoint=40, age_lo=25, age_hi=64):
    """Hat functions at age_lo, midpoint, age_hi (piecewise linear, continuous)."""
    if not age_lo < midpoint < age_hi:
        raise ValueError("midpoint must lie strictly inside the age range")
    left = float(midpoint - age_lo)
    right = float(age_hi - midpoint)

    def phi1(x):
        return 1.0 - (x - age_lo) / left if x < midpoint else 0.0

    def phi2(x):
        if x < midpoint:
            return (x - age_lo) / left
        return (age_hi - x) / right

    def phi3(x):
        return 0.0 if x < midpoint else (x - midpoint) / right

    return BasisSet(
        kind="piecewise3",
        p=3,
        age_range=(age_lo, age_hi),
        age_parts=(phi1, phi2, phi3),
    )


def _linear2_tensor(age_lo, age_hi, dur_parts):
    """Termination tensor basis: the linear2 age pair x `dur_parts`."""
    return BasisSet(
        kind="tensor",
        p=2 * len(dur_parts),
        age_range=(age_lo, age_hi),
        age_parts=linear2(age_lo, age_hi).age_parts,
        dur_parts=dur_parts,
    )


def four_factor(age_lo=25, age_hi=64):
    """Termination tensor basis: linear age pair x (1, d) in duration."""
    return _linear2_tensor(age_lo, age_hi, (lambda d: 1.0, lambda d: d))


def six_factor(age_lo=25, age_hi=64):
    """Termination tensor basis: linear age pair x (1, e^-d, e^-2d) in duration."""
    dur = (lambda d: 1.0, lambda d: np.exp(-d), lambda d: np.exp(-2.0 * d))
    return _linear2_tensor(age_lo, age_hi, dur)


BUILTIN_FACTORIES = {
    "linear2": linear2,
    "piecewise3": piecewise3,
    "four_factor": four_factor,
    "six_factor": six_factor,
}


def builtin(kind, **params):
    """Construct one of the built-in basis families by name."""
    try:
        factory = BUILTIN_FACTORIES[kind]
    except KeyError:
        raise ValueError(
            f"unknown basis kind {kind!r}; choose from {sorted(BUILTIN_FACTORIES)}"
        ) from None
    return factory(**params)


def _table_key(cell):
    if cell.kind is StudyKind.INCEPTION:
        return cell.age
    return (cell.age, round(float(cell.duration), 9))


def custom_basis(cells, design, age_range=None):
    """Tabulated basis: one design vector per cell.

    `design` is a (len(cells), p) array.  Ages outside `age_range` (default:
    the span of the tabulated cells) are rejected at evaluation time.
    """
    design = np.asarray(design, dtype=float)
    cells = tuple(cells)
    if design.ndim != 2 or design.shape[0] != len(cells):
        raise ValueError("design must have one row per cell")
    if not np.isfinite(design).all():
        raise ValueError("design contains non-finite entries")
    table = {_table_key(c): design[i].copy() for i, c in enumerate(cells)}
    if len(table) != len(cells):
        raise ValueError("duplicate cells in custom basis table")
    ages = [c.age for c in cells]
    if age_range is None:
        age_range = (min(ages), max(ages))
    return BasisSet(
        kind="custom", p=design.shape[1], age_range=age_range, table=table
    )


def load_custom_basis(source, kind):
    """Load a tabulated basis from CSV `age[,duration],phi_1,...,phi_p`.

    `source` is anything panel.read_text accepts; termination tables, and
    only they, carry the duration column.  A wrong header, a field that is
    not a number or a row of the wrong width raises ValueError naming its line.
    """
    kind = StudyKind(kind)
    keys = ("age",) if kind is StudyKind.INCEPTION else ("age", "duration")
    reader = csv.reader(io.StringIO(read_text(source)))
    header = tuple(h.strip() for h in next(reader, ()))
    phis = tuple(f"phi_{i}" for i in range(1, len(header) - len(keys) + 1))
    if not phis or header != keys + phis:
        raise ValueError(
            f"custom basis line 1: expected header {','.join(keys)},phi_1..phi_p, "
            f"got {','.join(header)!r}"
        )
    cells, rows = [], []
    for line, row in enumerate(reader, start=2):
        if not row or all(not f.strip() for f in row):
            continue
        try:
            if len(row) != len(header):
                raise ValueError(f"expected {len(header)} fields, got {len(row)}")
            age = int(row[0])
            if kind is StudyKind.INCEPTION:
                cells.append(Cell(StudyKind.INCEPTION, age))
            else:
                # Width is irrelevant to basis evaluation; lookups key on the
                # bucket start only.
                cells.append(Cell(StudyKind.TERMINATION, age, float(row[1]), 1.0))
            rows.append([float(v) for v in row[len(keys):]])
        except ValueError as exc:
            raise ValueError(f"custom basis line {line}: {exc}") from None
    if not rows:
        raise ValueError("custom basis table has no data rows")
    return custom_basis(cells, np.asarray(rows))


def eval_design(basis, cell):
    """Design vector of one cell under the basis; length basis.p."""
    lo, hi = basis.age_range
    if not lo <= cell.age <= hi:
        raise ValueError(
            f"age {cell.age} outside basis age range [{lo:g}, {hi:g}]"
        )
    if basis.table is not None:
        key = _table_key(cell)
        try:
            return basis.table[key].copy()
        except KeyError:
            raise ValueError(f"cell {cell.label} not in custom basis table") from None
    if basis.kind == "tensor":
        if cell.kind is not StudyKind.TERMINATION:
            raise ValueError("tensor basis requires termination cells")
        phi = np.array([f(float(cell.age)) for f in basis.age_parts])
        psi = np.array([g(float(cell.duration)) for g in basis.dur_parts])
        return np.outer(phi, psi).ravel()
    if cell.kind is not StudyKind.INCEPTION:
        raise ValueError(f"{basis.kind} basis requires inception cells")
    return np.array([f(float(cell.age)) for f in basis.age_parts])


def design_matrix(basis, cells):
    """Stack eval_design over a cell list into a (len(cells), p) matrix."""
    return np.array([eval_design(basis, c) for c in cells])


def check_rank(basis, cells):
    """True iff the design matrix over `cells` has full column rank."""
    if not cells:
        raise ValueError("check_rank needs a nonempty cell list")
    matrix = design_matrix(basis, cells)
    sv = np.linalg.svd(matrix, compute_uv=False)
    return bool(sv.size == basis.p and sv[-1] > RANK_TOLERANCE * sv[0])
