"""Database of local reduction bases over the pulse-center grid: congruence
alignment, persistence, interpolation and stacked-basis compression.

Interpolating between bases only makes sense when corresponding columns vary
continuously across the grid, so raw bases are first rotated to be congruent
with a reference entry (orthogonal Procrustes factor of the cross-Gramian).
Interpolation of an unaligned database is a contract error.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import mmwrite

from .errors import AlignmentError, ContractError
from .spectral import LocalBasis, build_local_basis

__all__ = [
    "BasisDatabase",
    "congruent_align",
    "default_grid",
    "build_database",
    "cell_weight",
    "chain_blend",
    "interpolate_basis",
    "slow_basis_derivative",
    "stack_columns",
    "stack_orthonormalize",
    "modal_pod",
    "singular_value_profile",
    "save_database",
    "load_database",
]

log = logging.getLogger(__name__)

# Relative singular-value cutoff for rank decisions on stacked bases. The
# trailing singular values of a stacked mode database decay all the way to
# round-off, so the cutoff sits near (but safely above) machine zero; a
# looser cutoff such as 1e-8 visibly undercounts the span of the stack.
DEFAULT_SV_TOL = 5e-14

# Smallest singular value of the cross-Gramian, relative to max(sigma_1, 1),
# for which a congruence rotation is defined.
MIN_CONGRUENCE_SINGULAR = 1e-12


def congruent_align(v_ref, v_raw, return_rotation=False):
    """Rotate ``v_raw`` so its columns are consistent with ``v_ref``.

    Computes ``P = v_raw' v_ref``, its SVD ``P = L S R'`` and the orthogonal
    factor ``Q = L R'``; returns ``v_raw @ Q``, which spans the same subspace
    as ``v_raw``. Raises :class:`AlignmentError` when ``P`` is (numerically)
    rank deficient, i.e. the subspaces have an orthogonal direction and no
    congruence is defined.
    """
    v_ref = np.asarray(v_ref, dtype=float)
    v_raw = np.asarray(v_raw, dtype=float)
    if v_ref.shape != v_raw.shape:
        raise ContractError(
            f"basis shapes differ: {v_ref.shape} vs {v_raw.shape}"
        )
    p = v_raw.T @ v_ref
    left, sing, right_t = np.linalg.svd(p)
    if sing[-1] <= MIN_CONGRUENCE_SINGULAR * max(sing[0], 1.0):
        raise AlignmentError(
            "no congruence direction: cross-Gramian is rank deficient "
            f"(smallest singular value {sing[-1]:.3e})"
        )
    q = left @ right_t
    aligned = v_raw @ q
    if return_rotation:
        return aligned, q
    return aligned


def default_grid(length, n_points=19):
    """Pulse-center grid ``j * L / (n_points + 1)``, j = 1..n_points."""
    j = np.arange(1, n_points + 1, dtype=float)
    return j * length / (n_points + 1)


@dataclass
class BasisDatabase:
    """Ordered, congruence-aligned local bases over an ascending grid."""

    grid: np.ndarray
    entries: list
    reference_index: int
    kind: str
    aligned: bool = True
    alignment_residuals: np.ndarray | None = None
    adjacent_angles: np.ndarray | None = None

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.size == 0:
            raise ContractError("database grid is empty")
        if np.any(np.diff(self.grid) <= 0.0):
            raise ContractError("database grid must be strictly increasing")
        if len(self.entries) != self.grid.size:
            raise ContractError("one basis entry required per grid point")
        m = self.entries[0].m
        n = self.entries[0].n
        for e in self.entries:
            if e.m != m or e.n != n:
                raise ContractError("all database entries must share one shape")
            if e.kind != self.kind:
                raise ContractError("all database entries must share one kind")
        if not 0 <= self.reference_index < len(self.entries):
            raise ContractError("reference_index outside the grid")

    @property
    def n(self) -> int:
        return self.entries[0].n

    @property
    def m(self) -> int:
        return self.entries[0].m

    def __len__(self):
        return len(self.entries)


def _principal_angle(va, vb):
    sing = np.linalg.svd(va.T @ vb, compute_uv=False)
    return float(np.arccos(np.clip(sing.min(), -1.0, 1.0)))


def build_database(model, grid, k, with_md=False, align=True):
    """Build, then congruence-align, local bases on a pulse-center grid.

    Entries are built in grid order with the Newton solve warm-started from
    the previous equilibrium. The alignment reference is the grid midpoint
    entry, which halves the maximum grid distance over which congruence must
    hold. Solver and eigenvalue failures propagate annotated with the
    failing grid point.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ContractError("grid must be nonempty")
    entries = []
    u_guess = None
    sign_reference = None
    for x_c in grid:
        try:
            entry = build_local_basis(model, x_c, k, with_md=with_md,
                                      u_guess=u_guess, sign_reference=sign_reference)
        except Exception as exc:
            # annotate in place: the type and its data (residual history,
            # dependent columns) stay with the exception
            exc.args = (f"database build failed at x_c = {x_c}: {exc}", *exc.args[1:])
            raise
        entries.append(entry)
        u_guess = entry.u_eq
        sign_reference = entry.info.get("modes")

    reference_index = len(entries) // 2
    kind = entries[0].kind

    residuals = np.zeros(len(entries))
    if align:
        v0 = entries[reference_index].matrix
        for j, entry in enumerate(entries):
            if j != reference_index:
                entry.matrix = congruent_align(v0, entry.matrix)
            cross = entry.matrix.T @ v0
            residuals[j] = np.linalg.norm(cross - cross.T)
        log.info("alignment symmetry residuals: max %.3e", residuals.max())

    angles = np.array([
        _principal_angle(entries[j].matrix, entries[j + 1].matrix)
        for j in range(len(entries) - 1)
    ])
    if angles.size:
        log.info("adjacent-entry principal angles [deg]: max %.2f",
                 np.degrees(angles.max()))
        if not np.all(np.isfinite(angles)):
            raise ContractError("non-finite adjacent subspace angle")

    return BasisDatabase(
        grid=grid,
        entries=entries,
        reference_index=reference_index,
        kind=kind,
        aligned=bool(align),
        alignment_residuals=residuals if align else None,
        adjacent_angles=angles,
    )


def cell_weight(db, x_c):
    """Grid cell ``j`` and blend weight ``w`` of a pulse position, so that
    the interpolated basis is ``(1 - w) V_j + w V_{j+1}``.

    Positions outside the grid are clamped to the nearest end (the run
    reports how often, as ``clamped_positions``); a single-entry database
    gives ``(0, 0.0)``. This is the one place that decides the cell, for
    :func:`interpolate_basis`, for the reduced models that blend
    precomputed per-node operators and for the batched reconstruction. An
    array of positions gives arrays of cells and weights, element for
    element what each position gives alone.
    """
    grid = db.grid
    x = np.minimum(np.maximum(x_c, grid[0]), grid[-1])
    if len(db) == 1:
        j, w = np.zeros(x.shape, dtype=int), np.zeros(x.shape)
    else:
        # Counting the inner nodes at or left of x gives the cell, from 0 to
        # len(grid) - 2; the last node belongs to the last cell.
        j = grid[1:-1].searchsorted(x, side="right")
        w = (x - grid[j]) / (grid[j + 1] - grid[j])
    return (int(j), float(w)) if x.ndim == 0 else (j, w)


def chain_blend(lower, upper, w, overwrite=False):
    """The chain's one interpolation rule, ``(1 - w) X_j + w X_{j+1}``, of
    the node arrays ``lower = X_j`` and ``upper = X_{j+1}`` with a weight
    ``w`` of :func:`cell_weight`, or an array of weights that broadcasts
    against them; where every weight is 0, ``X_j`` itself. With
    ``overwrite``, for a caller's scratch arrays, the blend is formed in
    ``lower`` and ``upper`` is scaled in place."""
    if not (w.any() if isinstance(w, np.ndarray) else w):
        return lower
    if not overwrite:
        return (1.0 - w) * lower + w * upper
    lower *= 1.0 - w
    upper *= w
    lower += upper
    return lower


def interpolate_basis(db, x_c):
    """Entrywise piecewise-linear interpolation of the basis and equilibrium.

    Requires an aligned database; positions outside the grid are clamped to
    the nearest end. On a grid node the stored entry is returned verbatim.
    The blend is not re-orthonormalized.
    """
    if not db.aligned:
        raise ContractError("cannot interpolate a raw (unaligned) database")
    j, w = cell_weight(db, x_c)
    if w == 1.0:
        j, w = j + 1, 0.0  # the last node
    lower, upper = db.entries[j], db.entries[min(j + 1, len(db) - 1)]
    v, u = chain_blend(lower.matrix, upper.matrix, w), chain_blend(lower.u_eq, upper.u_eq, w)
    return (v.copy(), u.copy()) if w == 0.0 else (v, u)


def slow_basis_derivative(db, x_c, delta=None):
    """Central-difference derivative of the interpolated basis and
    equilibrium with respect to the pulse-center position.

    Inside a grid cell this equals the exact piecewise-constant slope of the
    linear interpolation, and on an end node the one-sided slope. Off the
    grid the clamped basis does not move: the derivative is zero there, as
    for a single-entry database.
    """
    grid = db.grid
    x = float(x_c)
    if len(db) == 1 or not grid[0] <= x <= grid[-1]:
        e = db.entries[0]
        return np.zeros_like(e.matrix), np.zeros_like(e.u_eq)
    if delta is None:
        j, _ = cell_weight(db, x)
        delta = 0.5 * (grid[j + 1] - grid[j])
    lo = max(x - delta, grid[0])
    hi = min(x + delta, grid[-1])
    if hi <= lo:
        raise ContractError("degenerate derivative stencil")
    v_hi, u_hi = interpolate_basis(db, hi)
    v_lo, u_lo = interpolate_basis(db, lo)
    return (v_hi - v_lo) / (hi - lo), (u_hi - u_lo) / (hi - lo)


# ---------------------------------------------------------------------------
# stacked-basis compression (constant-basis baselines)
# ---------------------------------------------------------------------------

def stack_columns(entries):
    """Stack the matrices of local bases (such as ``db.entries``) into one
    wide array."""
    mats = [e.matrix for e in entries]
    if not mats:
        raise ContractError("nothing to stack")
    n = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != n:
            raise ContractError("stacked bases must share the row dimension")
    return np.hstack(mats)


def stack_orthonormalize(stacked, sv_tol=DEFAULT_SV_TOL):
    """Orthonormal basis spanning the columns of the stacked array ("Modal"
    baseline).

    Keeps the left singular vectors with singular value above
    ``sv_tol * sigma_1``; the threshold sits well above machine zero to drop
    spurious directions.
    """
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(s > sv_tol * s[0]))
    log.info("stack of %d columns orthonormalized to rank %d", stacked.shape[1], rank)
    return u[:, :rank]


def modal_pod(stacked, m, sv_tol=DEFAULT_SV_TOL):
    """Best constant basis of size ``m``: top left singular vectors of the
    stacked array ("Modal-POD" baseline)."""
    u, s, _ = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(s > sv_tol * s[0]))
    if not 1 <= m <= rank:
        raise ContractError(f"requested {m} modes; need 1 <= m <= {rank}, the stack's rank")
    return u[:, :m]


def singular_value_profile(stacked):
    """All singular values of the stacked array, descending."""
    return np.linalg.svd(stacked, compute_uv=False)


# ---------------------------------------------------------------------------
# persistence: text metadata + Matrix Market entries, bit-exact round-trip
# ---------------------------------------------------------------------------

def _fmt(x):
    return np.format_float_scientific(x, precision=17)


def save_database(db, directory):
    """Write ``db`` to ``directory`` for :func:`load_database`. The metadata
    file is removed first and written last, so a save that fails part way
    leaves a directory that does not load, not one that loads as a mix of
    two databases."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta_path = directory / "db_meta.txt"
    meta_path.unlink(missing_ok=True)
    lines = [
        f"kind = {db.kind}",
        f"m = {db.m}",
        f"n = {db.n}",
        f"n_entries = {len(db)}",
        f"reference_index = {db.reference_index}",
        f"aligned = {int(db.aligned)}",
        "grid = " + " ".join(_fmt(g) for g in db.grid),
    ]
    if db.alignment_residuals is not None:
        lines.append("alignment_residuals = "
                     + " ".join(_fmt(r) for r in db.alignment_residuals))
    if db.adjacent_angles is not None:
        lines.append("adjacent_angles = "
                     + " ".join(_fmt(a) for a in db.adjacent_angles))
    for j, entry in enumerate(db.entries):
        edir = directory / f"entry_{j:02d}"
        edir.mkdir(exist_ok=True)
        mmwrite(str(edir / "basis.mtx"), entry.matrix, precision=17, symmetry="general")
        mmwrite(str(edir / "u_eq.mtx"), entry.u_eq[:, None], precision=17, symmetry="general")
        (edir / "frequencies.txt").write_text(
            "\n".join(_fmt(w) for w in entry.frequencies) + "\n"
        )
    meta_path.write_text("\n".join(lines) + "\n")


def _floats(text):
    return np.array([float(t) for t in text.split()])


def _read_matrix(path):
    """A dense real matrix from a Matrix Market array file that ``mmwrite``
    wrote with ``symmetry="general"``: the values in column order after the
    header, comments and shape. numpy's parse keeps the sign of a zero,
    which ``mmread`` drops. Any other header is a ``ValueError``."""
    with open(path) as fh:
        header = fh.readline().split()
        if header != ["%%MatrixMarket", "matrix", "array", "real", "general"]:
            raise ValueError(f"not a general real array: {' '.join(header)}")
        line = fh.readline()
        while line.startswith("%"):
            line = fh.readline()
        rows, cols = (int(v) for v in line.split())
        values = np.array(fh.read().split(), dtype=float)
    if values.size != rows * cols:
        raise ValueError(f"{values.size} values for a {rows} x {cols} array")
    return np.ascontiguousarray(values.reshape(cols, rows).T)


def _read(path, parse):
    """``parse(path)``; a missing or unparsable file is a :class:`ContractError`
    that names it."""
    try:
        return parse(path)
    except (OSError, ValueError) as exc:
        raise ContractError(f"cannot read {path}: {exc}") from exc


def load_database(directory) -> BasisDatabase:
    """Read a database written by :func:`save_database`. A missing file or
    metadata key, or an unparsable value, raises :class:`ContractError`
    naming the file."""
    directory = Path(directory)
    meta_path = directory / "db_meta.txt"
    if not meta_path.exists():
        raise ContractError(f"{directory} does not contain a basis database")
    meta = {}
    for line in meta_path.read_text().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            meta[key.strip()] = value.strip()
    try:
        grid = _floats(meta["grid"])
        kind = meta["kind"]
        n_entries = int(meta["n_entries"])
        reference_index = int(meta["reference_index"])
        aligned = bool(int(meta["aligned"]))
        residuals = (_floats(meta["alignment_residuals"])
                     if "alignment_residuals" in meta else None)
        angles = _floats(meta["adjacent_angles"]) if "adjacent_angles" in meta else None
    except KeyError as exc:
        raise ContractError(f"{meta_path} has no {exc} entry") from None
    except ValueError as exc:
        raise ContractError(f"cannot read {meta_path}: {exc}") from exc
    if n_entries != grid.size:
        raise ContractError(f"{meta_path}: n_entries differs from the grid size")
    entries = []
    for j, x_c in enumerate(grid):
        edir = directory / f"entry_{j:02d}"
        entries.append(LocalBasis(
            x_c=float(x_c),
            u_eq=_read(edir / "u_eq.mtx", lambda f: _read_matrix(f).ravel()),
            frequencies=_read(edir / "frequencies.txt", lambda f: _floats(f.read_text())),
            matrix=_read(edir / "basis.mtx", _read_matrix),
            kind=kind,
        ))
    return BasisDatabase(
        grid=grid,
        entries=entries,
        reference_index=reference_index,
        kind=kind,
        aligned=aligned,
        alignment_residuals=residuals,
        adjacent_angles=angles,
    )
