"""Finite monoid tables, unitary irreducible representations, and fixtures.

Shipped fixtures: cyclic groups Z_n, the symmetric group S3, the dihedral
group of the square D4 (order 8) and the quaternion group Q8, each with a
complete table of unitary irreps.  No irrep-finding algorithm is attempted;
each nonabelian group is written once, as the exact matrices of a faithful
representation, and its Cayley table is read off their products.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import _frozen, within
from .errors import ConstructionError

_IRREP_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SemigroupTable:
    """Cayley table of a finite monoid: ``table[g, h]`` is the index of g*h."""

    table: np.ndarray
    identity: int

    def __post_init__(self):
        table = np.array(self.table, dtype=np.intp)
        m = table.shape[0]
        if table.shape != (m, m):
            raise ConstructionError(f"multiplication table must be square, got {table.shape}")
        if table.min(initial=0) < 0 or table.max(initial=0) >= m:
            raise ConstructionError("table entries must be element indices")
        e = int(self.identity)
        if not (0 <= e < m):
            raise ConstructionError(f"identity index {e} out of range")
        if not (np.all(table[e] == np.arange(m)) and np.all(table[:, e] == np.arange(m))):
            raise ConstructionError("declared identity is not a two-sided unit")
        # Light's test: x (a y) = (x a) y for all x, y and every a in a
        # generating set; the elements a for which it holds are closed under
        # products (Clifford-Preston I, 1.2), so this is exact for any magma.
        # The identity passes it and needs no check.
        for a in _generators(table, e):
            if not np.array_equal(table[table[:, a]], table[:, table[a]]):
                raise ConstructionError("multiplication table is not associative")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", e)

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    @cached_property
    def inverses(self) -> np.ndarray | None:
        """Two-sided inverses of all elements, or None if some are missing."""
        unit = self.table == self.identity
        both = unit & unit.T  # both[g, h]: g h = h g = e
        if not both.any(axis=1).all():
            return None
        inv = both.argmax(axis=1)
        inv.setflags(write=False)
        return inv

    @property
    def is_group(self) -> bool:
        return self.inverses is not None


def _generators(table: np.ndarray, identity: int) -> list[int]:
    """A greedy generating set of the magma ``table``, with ``identity`` given.

    Each generator is the first element not yet reached; the reached set is
    then closed under products, the newly reached elements of one round
    multiplied on both sides by the whole reached set.  A pair is multiplied
    in the round that reached the later of its two elements, so the closure
    costs ``O(m**2)`` in all.
    """
    reached = np.zeros(len(table), dtype=bool)
    reached[identity] = True
    generators = []
    while not reached.all():
        new = np.array([np.argmin(reached)])
        generators.append(int(new[0]))
        while new.size:
            reached[new] = True
            old = np.flatnonzero(reached)
            hit = np.zeros_like(reached)
            hit[table[np.ix_(new, old)]] = True
            hit[table[np.ix_(old, new)]] = True
            new = np.flatnonzero(hit & ~reached)
    return generators


@dataclass(frozen=True, eq=False)
class IrrepTable:
    """Unitary irreps of a finite group: one ``(|G|, d, d)`` array per irrep."""

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(_frozen(m) for m in self.matrices)
        for m in mats:
            if m.ndim != 3 or m.shape[1] != m.shape[2]:
                raise ConstructionError("each irrep must be a (|G|, d, d) array")
        object.__setattr__(self, "matrices", mats)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(int(m.shape[1]) for m in self.matrices)

    @cached_property
    def trivial_index(self) -> int | None:
        for i, m in enumerate(self.matrices):
            if m.shape[1] == 1 and within(np.abs(m - 1.0), _IRREP_TOL).all():
                return i
        return None

    def validate(self, group: SemigroupTable) -> None:
        """Check unitarity, the homomorphism law, completeness and orthogonality.

        Raises
        ------
        ConstructionError
            On any failed structural check.
        """
        if not group.is_group:
            raise ConstructionError("irrep tables require a group")
        m = group.order
        if sum(d * d for d in self.dims) != m:
            raise ConstructionError(
                f"irrep dimensions {self.dims} do not satisfy sum(d^2) == |G| == {m}"
            )
        if self.trivial_index is None:
            raise ConstructionError("irrep table must contain the trivial representation")
        for p, mats in enumerate(self.matrices):
            if mats.shape[0] != m:
                raise ConstructionError(f"irrep {p} has {mats.shape[0]} matrices, expected {m}")
            d = mats.shape[1]
            if not within(np.abs(mats[group.identity] - np.eye(d)).max(), _IRREP_TOL):
                raise ConstructionError(f"irrep {p} does not map the identity to 1")
            gram = mats @ mats.conj().transpose(0, 2, 1)
            bad = np.flatnonzero(~within(np.abs(gram - np.eye(d)).max(axis=(1, 2)), _IRREP_TOL))
            if bad.size:
                raise ConstructionError(f"irrep {p} is not unitary at element {bad[0]}")
            deviation = np.abs(mats[:, None] @ mats - mats[group.table]).max(axis=(2, 3))
            bad = np.argwhere(~within(deviation, _IRREP_TOL))  # row-major: first g, then h
            if bad.size:
                g, h = bad[0]
                raise ConstructionError(f"irrep {p} violates the homomorphism law at ({g}, {h})")
        # Schur orthogonality of matrix-coefficient rows
        rows = self.coefficient_rows()
        gram = rows.conj() @ rows.T
        expected = np.diag(np.repeat([m / d for d in self.dims], [d * d for d in self.dims]))
        if not within(np.abs(gram - expected).max(), _IRREP_TOL * m):
            raise ConstructionError("matrix coefficients violate Schur orthogonality")

    def coefficient_rows(self) -> np.ndarray:
        """Matrix of shape (sum d^2, |G|): each row is one coefficient g -> pi(g)[r, s]."""
        return np.concatenate(
            [m.reshape(m.shape[0], -1).T for m in self.matrices], axis=0
        )


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def cyclic_group(n: int) -> SemigroupTable:
    idx = np.arange(n)
    return SemigroupTable((idx[:, None] + idx[None, :]) % n, 0)


def cyclic_irreps(n: int) -> IrrepTable:
    g = np.arange(n)
    # the exponent j * g is reduced mod n first: powers of a rounded root of
    # unity drift as j * g grows towards n**2 (5e-10 at n = 4096)
    return IrrepTable(
        tuple(np.exp(2j * np.pi * ((j * g) % n) / n).reshape(n, 1, 1) for j in range(n))
    )


def _cayley_table(mats: np.ndarray) -> SemigroupTable:
    """The table of the group of exact matrices ``mats``, the identity first.

    ``table[x, y]`` is the index of the one matrix equal to ``mats[x] @ mats[y]``.

    Raises
    ------
    ConstructionError
        Unless every product equals exactly one listed matrix.
    """
    m = len(mats)
    products = (mats[:, None] @ mats).reshape(m, m, 1, -1)
    hits = (products == mats.reshape(m, -1)).all(axis=-1)  # hits[x, y, z]: x y == z
    if not (hits.sum(axis=-1) == 1).all():
        raise ConstructionError("the matrices are not closed under products")
    return SemigroupTable(hits.argmax(axis=-1), 0)


_S3_PERMS = (
    (0, 1, 2),
    (1, 2, 0),
    (2, 0, 1),
    (0, 2, 1),
    (2, 1, 0),
    (1, 0, 2),
)


def _s3_permutation_matrices() -> np.ndarray:
    """The matrix of each permutation ``sigma``, sending ``e_j`` to ``e_sigma(j)``:
    the transpose of ``eye[sigma]``, whose row ``j`` is ``e_sigma(j)``."""
    return np.eye(3)[list(_S3_PERMS)].transpose(0, 2, 1)


def s3_group() -> SemigroupTable:
    return _cayley_table(_s3_permutation_matrices())


def s3_sign() -> np.ndarray:
    """Parity of each element in the fixed S3 ordering (+1 even, -1 odd)."""
    return np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


def s3_irreps() -> IrrepTable:
    m = len(_S3_PERMS)
    triv = np.ones((m, 1, 1), dtype=np.complex128)
    sign = s3_sign().reshape(m, 1, 1).astype(np.complex128)
    # orthonormal basis of the plane orthogonal to (1, 1, 1)
    basis = np.array(
        [
            [1 / np.sqrt(2), 1 / np.sqrt(6)],
            [-1 / np.sqrt(2), 1 / np.sqrt(6)],
            [0.0, -2 / np.sqrt(6)],
        ]
    )
    std = np.empty((m, 2, 2), dtype=np.complex128)
    for i, perm_mat in enumerate(_s3_permutation_matrices()):
        std[i] = basis.T @ perm_mat @ basis
    return IrrepTable((triv, sign, std))


def d4_group() -> SemigroupTable:
    return _cayley_table(d4_irreps().matrices[-1])  # the 2-dim irrep is faithful


def d4_irreps() -> IrrepTable:
    # elements r^a s^b indexed a + 4*b; s r s = r^{-1}
    rot = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=np.complex128)
    ref = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
    two = np.empty((8, 2, 2), dtype=np.complex128)
    chars = []
    for cr, cs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        chars.append(
            np.array(
                [cr ** (x % 4) * cs ** (x // 4) for x in range(8)], dtype=np.complex128
            ).reshape(8, 1, 1)
        )
    for x in range(8):
        a, b = x % 4, x // 4
        two[x] = np.linalg.matrix_power(rot, a) @ (ref if b else np.eye(2))
    return IrrepTable((*chars, two))


def q8_group() -> SemigroupTable:
    return _cayley_table(q8_irreps().matrices[-1])  # the 2-dim irrep is faithful


def q8_irreps() -> IrrepTable:
    # the 2-dim irrep, generated by i and j with k = i j, on the elements
    # 1, -1, i, -i, j, -j, k, -k in this order
    i = np.array([[1j, 0], [0, -1j]])
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    k = np.array([[0.0, 1j], [1j, 0.0]])  # i @ j, written out: the product's corner is -0.0
    two = np.array([sign * u for u in (np.eye(2), i, j, k) for sign in (1.0, -1.0)])
    chars = []
    for ci, cj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        # 1, i, j and k take the values 1, ci, cj and ci * cj, as do their negatives
        chars.append(np.repeat([1, ci, cj, ci * cj], 2).astype(np.complex128).reshape(8, 1, 1))
    return IrrepTable((*chars, two))


_NAMED_GROUPS = {
    "s3": (s3_group, s3_irreps),
    "d4": (d4_group, d4_irreps),
    "q8": (q8_group, q8_irreps),
}


def builtin_name(name: str) -> tuple[str, bool] | None:
    """``(fixture name, dual)`` for a built-in name, ``None`` for a file path.

    A built-in name is a fixture name, optionally after the prefix ``dual:``
    (the group C*-algebra rather than the functions); the prefix is read
    with the fixture name's stripping and case folding.  An integer ``zn:``
    order is read as a number, so ``zn:6``, ``zn:06`` and ``zn: 6`` all give ``zn:6``.

    Raises
    ------
    ConstructionError
        If ``name`` is blank, which names neither a fixture nor a file.
    """
    key = name.strip().lower()
    if not key:
        raise ConstructionError(f"empty group name {name!r}")
    dual = key.startswith("dual:")
    key = key.removeprefix("dual:").strip()
    order = _cyclic_order(key)
    key = key if order is None else f"zn:{order}"
    return (key, dual) if key.startswith("zn:") or key in _NAMED_GROUPS else None


def _cyclic_order(key: str) -> int | None:
    """The integer ``n`` of a folded ``zn:<n>`` name, else ``None``: ``<n>`` is
    ASCII digits after an optional sign, with blanks around them (``int`` alone
    would also read ``3_0`` and non-ASCII digits)."""
    if not key.startswith("zn:"):
        return None
    text = key.removeprefix("zn:").strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    return int(text) if digits.isascii() and digits.isdigit() else None


def builtin_group(name: str) -> tuple[SemigroupTable, IrrepTable]:
    """Resolve a fixture name: ``zn:<n>``, ``s3``, ``d4`` or ``q8``."""
    return builtin_table(name), builtin_irreps(name)


def builtin_table(name: str) -> SemigroupTable:
    """The group table of a fixture name, without its irreps."""
    return _build_fixture(name, 0)


def builtin_irreps(name: str) -> IrrepTable:
    """The irreps of a fixture name; ``cyclic_irreps`` costs ``n**2`` on ``zn:<n>``."""
    return _build_fixture(name, 1)


def _build_fixture(name: str, part: int):
    """Part ``part`` of the fixture ``name``: 0 for the table, 1 for the irreps."""
    key = name.strip().lower()
    if key in _NAMED_GROUPS:
        return _NAMED_GROUPS[key][part]()
    if not key.startswith("zn:"):
        raise ConstructionError(f"unknown built-in group {name!r}")
    n = _cyclic_order(key)
    if n is None:
        raise ConstructionError(f"cyclic group order must be an integer in {name!r}")
    if n < 1:
        raise ConstructionError(f"cyclic order must be positive, got {n}")
    try:
        return (cyclic_group, cyclic_irreps)[part](n)
    except (MemoryError, ValueError) as exc:  # numpy refuses the allocation
        raise ConstructionError(f"cyclic group of order {n} is too large to build: {exc}")
