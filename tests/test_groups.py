import tracemalloc

import numpy as np
import pytest

import cstarconv as cc
from cstarconv.groups import _generators, builtin_name, is_builtin_group

from conftest import LOOP_5, SEED


@pytest.mark.parametrize("name", ["zn:1", "zn:2", "zn:5", "zn:12", "s3", "d4", "q8"])
def test_builtin_tables_are_groups(name):
    table, irreps = cc.builtin_group(name)
    assert table.is_group
    irreps.validate(table)
    assert sum(d * d for d in irreps.dims) == table.order


def test_fixture_names_are_the_resolvers_names():
    """``is_builtin_group`` holds exactly where ``builtin_group`` knows the name
    (a malformed ``zn:`` order is a fixture name with a bad order)."""
    for name in ("s3", " D4 ", "Q8", "zn:5", "ZN:3", "zn:abc", "zn:0"):
        assert is_builtin_group(name)
    for name in ("s4", "dual:s3", "psi.json", "", "zn"):
        assert not is_builtin_group(name)
        with pytest.raises(cc.ConstructionError, match="unknown built-in group"):
            cc.builtin_group(name)


def test_builtin_names_read_the_dual_prefix_like_fixture_names():
    """One rule for every command: ``(fixture name, dual)``, or None for a path."""
    for name in ("s3", " S3", "zn:4", "ZN:4 "):
        assert builtin_name(name) == (name.strip().lower(), False)
    for name in ("dual:s3", "DUAL:s3", " dual:s3", "Dual:S3", "dual: s3"):
        assert builtin_name(name) == ("s3", True)
    assert builtin_name("dual:zn:abc") == ("zn:abc", True)  # a fixture name with a bad order
    for name in ("psi.json", "dual:psi.json", "dual:", "s4", "dual:dual:s3"):
        assert builtin_name(name) is None
    for name in ("", "  "):
        with pytest.raises(cc.ConstructionError, match="empty group name"):
            builtin_name(name)


def test_builtin_names_of_one_cyclic_group_are_equal():
    for name in ("zn:6", "zn:06", "zn: 6", " ZN:6", "zn:+6"):
        assert builtin_name(name) == ("zn:6", False)
    assert builtin_name("dual:zn:06") == ("zn:6", True)
    for name in ("zn:7", "zn:60", "zn:-6", "zn:6.0"):
        assert builtin_name(name) != ("zn:6", False)
    tracemalloc.start()
    try:
        assert builtin_name("zn:1000000000") == ("zn:1000000000", False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # a name, not a table


def test_s3_structure(s3):
    assert s3.order == 6
    # parity is multiplicative
    sign = cc.s3_sign()
    for g in range(6):
        for h in range(6):
            assert sign[s3.table[g, h]] == sign[g] * sign[h]


def test_irrep_dimension_counts(s3_irreps):
    assert s3_irreps.dims == (1, 1, 2)
    assert cc.d4_irreps().dims == (1, 1, 1, 1, 2)
    assert cc.q8_irreps().dims == (1, 1, 1, 1, 2)


def test_semigroup_table_rejects_bad_structures():
    with pytest.raises(cc.ConstructionError, match="declared identity is not a two-sided unit"):
        cc.SemigroupTable(np.array([[1, 0], [0, 1]]), 0)
    # identity holds but (1*1)*1 = 1 while 1*(1*1) = 2
    bad_assoc = np.array([[0, 1, 2], [1, 2, 2], [2, 1, 2]])
    for table in (bad_assoc, np.array(LOOP_5)):
        with pytest.raises(cc.ConstructionError, match="multiplication table is not associative"):
            cc.SemigroupTable(table, 0)
    with pytest.raises(cc.ConstructionError, match="table entries must be element indices"):
        cc.SemigroupTable(np.array([[0, 1], [1, 5]]), 0)  # entry out of range


def _exhaustively_associative(table) -> bool:
    """Oracle: ``(g h) k = g (h k)`` over all ``m**3`` triples."""
    t = np.asarray(table)
    return all(np.array_equal(t[t[g]], t[g][t]) for g in range(len(t)))


def _transformation_monoid(rng, n: int, count: int) -> np.ndarray:
    """Table of the monoid of maps of ``range(n)`` generated by ``count``
    random ones under composition, identity first: associative, rarely a group."""
    maps = [tuple(range(n))]
    gens = [tuple(int(x) for x in rng.integers(0, n, n)) for _ in range(count)]
    for a in maps:  # grows while it runs: the closure by right factors
        for g in gens:
            product = tuple(g[x] for x in a)
            if product not in maps:
                maps.append(product)
    index = {a: i for i, a in enumerate(maps)}
    return np.array([[index[tuple(b[x] for x in a)] for b in maps] for a in maps])


def _relabelled(rng, table: np.ndarray, identity: int) -> tuple[np.ndarray, int]:
    """The same magma with its elements renamed by a random permutation."""
    p = rng.permutation(len(table))
    out = np.empty_like(table)
    out[np.ix_(p, p)] = p[table]
    return out, int(p[identity])


def _light_test_cases():
    rng = np.random.default_rng(SEED)
    associative = [_relabelled(rng, _transformation_monoid(rng, 4, 2), 0) for _ in range(12)]
    for name in ("zn:12", "s3", "d4", "q8"):
        group, _ = cc.builtin_group(name)
        associative.append(_relabelled(rng, np.array(group.table), group.identity))
    # a left-zero monoid: x y = x unless x is the identity; every element is
    # a generator, the worst case of the greedy set
    left_zero = np.tile(np.arange(9)[:, None], 9)
    left_zero[0] = np.arange(9)
    associative.append((left_zero, 0))
    # the associative tables one entry off, and random tables with a
    # two-sided unit: almost never associative
    perturbed = []
    for table, e in associative:
        others = np.flatnonzero(np.arange(len(table)) != e)
        if len(others) >= 2:
            off = table.copy()
            j, k = rng.choice(others, 2)
            off[j, k] = (off[j, k] + 1) % len(off)
            perturbed.append((off, e))
    for m in (3, 4, 6):
        for _ in range(4):
            table = rng.integers(0, m, (m, m))
            table[0] = table[:, 0] = np.arange(m)
            perturbed.append(_relabelled(rng, table, 0))
    return [(np.array(LOOP_5), 0)] + associative + perturbed


def test_light_associativity_test_matches_the_exhaustive_oracle():
    verdicts = []
    for table, e in _light_test_cases():
        expected = _exhaustively_associative(table)
        try:
            cc.SemigroupTable(table, e)
            accepted = True
        except cc.ConstructionError as exc:
            assert str(exc) == "multiplication table is not associative"
            accepted = False
        assert accepted == expected, table
        verdicts.append(accepted)
    assert 10 <= sum(verdicts) <= len(verdicts) - 10


@pytest.mark.parametrize("name", ["zn:1", "zn:7", "zn:512", "s3", "d4", "q8"])
def test_light_test_checks_a_logarithmic_generating_set_of_a_group(name):
    """By Lagrange a greedy generating set of a group has at most ``log2 m``
    elements past the identity, so the check costs ``m**2 log m``, not ``m**3``."""
    group, _ = cc.builtin_group(name)
    generators = _generators(group.table, group.identity)
    assert len(generators) <= np.log2(group.order)
    assert group.identity not in generators


def test_truncated_monoid_is_valid_non_group():
    # {e, a, a^2} with a^3 = a^2: associative, unital, not a group
    table = np.array([[0, 1, 2], [1, 2, 2], [2, 2, 2]])
    monoid = cc.SemigroupTable(table, 0)
    assert not monoid.is_group
    assert monoid.inverses is None


def _loop_inverses(table: cc.SemigroupTable):
    """Reference: for each g the first h with g h = e, kept if also h g = e."""
    m, e = table.order, table.identity
    inv = np.full(m, -1, dtype=np.intp)
    for g in range(m):
        for h in np.where(table.table[g] == e)[0]:
            if table.table[h, g] == e:
                inv[g] = h
                break
    return None if (inv < 0).any() else inv


MONOIDS = {
    **{name: cc.builtin_group(name)[0] for name in ("zn:1", "zn:7", "s3", "d4", "q8")},
    "truncated": cc.SemigroupTable(np.array([[0, 1, 2], [1, 2, 2], [2, 2, 2]]), 0),
    "left-zero": cc.SemigroupTable(np.array([[0, 1, 2], [1, 1, 1], [2, 2, 2]]), 0),
}


@pytest.mark.parametrize("table", MONOIDS.values(), ids=MONOIDS.keys())
def test_inverses_match_the_first_match_loop(table):
    expected = _loop_inverses(table)
    if expected is None:
        assert table.inverses is None and not table.is_group
    else:
        assert np.array_equal(table.inverses, expected)
        assert table.inverses.dtype == np.intp and not table.inverses.flags.writeable


def test_incomplete_irreps_rejected(s3):
    partial = cc.IrrepTable(cc.s3_irreps().matrices[:2])
    with pytest.raises(cc.ConstructionError):
        partial.validate(s3)


def test_irreps_without_trivial_rejected():
    z2 = cc.cyclic_group(2)
    sign_only = cc.IrrepTable(
        (cc.cyclic_irreps(2).matrices[1], cc.cyclic_irreps(2).matrices[1])
    )
    with pytest.raises(cc.ConstructionError):
        sign_only.validate(z2)


def _with_standard_irrep(matrices):
    irreps = cc.s3_irreps().matrices
    return cc.IrrepTable((irreps[0], irreps[1], matrices))


def test_non_unitary_irrep_rejected_at_first_element(s3):
    std = np.array(cc.s3_irreps().matrices[2])
    std[4] *= 1.01
    std[2] *= 1.01
    with pytest.raises(cc.ConstructionError, match="irrep 2 is not unitary at element 2$"):
        _with_standard_irrep(std).validate(s3)


def test_nan_irrep_entry_rejected_as_not_unitary(s3):
    std = np.array(cc.s3_irreps().matrices[2])
    std[3, 0, 1] = np.nan
    with pytest.raises(cc.ConstructionError, match="irrep 2 is not unitary at element 3$"):
        _with_standard_irrep(std).validate(s3)


def test_trivial_irrep_is_one_within_the_absolute_irrep_tolerance():
    """No relative slack: a character reading 1 + 1e-6 is not the trivial one."""
    for value in (1.0 + 1e-6, np.nan):
        assert cc.IrrepTable((np.full((2, 1, 1), value),)).trivial_index is None
    assert cc.IrrepTable((np.full((2, 1, 1), 1.0 + 1e-11),)).trivial_index == 0


def test_non_homomorphic_irrep_rejected_at_first_pair(s3):
    std = np.array(cc.s3_irreps().matrices[2])
    std[[3, 4]] = std[[4, 3]]  # still unitary, no longer multiplicative
    first = next(
        (g, h)
        for g in range(s3.order)
        for h in range(s3.order)
        if np.abs(std[g] @ std[h] - std[s3.table[g, h]]).max() > 1e-10
    )
    with pytest.raises(
        cc.ConstructionError,
        match=rf"irrep 2 violates the homomorphism law at \({first[0]}, {first[1]}\)$",
    ):
        _with_standard_irrep(std).validate(s3)


def _validate_per_element(irreps, group):
    """The message of the first failed check, ``None`` if all pass; the
    homomorphism law is checked one element ``g`` at a time, as the reference."""
    m = group.order
    if sum(d * d for d in irreps.dims) != m:
        return f"irrep dimensions {irreps.dims} do not satisfy sum(d^2) == |G| == {m}"
    if irreps.trivial_index is None:
        return "irrep table must contain the trivial representation"
    for p, mats in enumerate(irreps.matrices):
        d = mats.shape[1]
        if np.abs(mats[group.identity] - np.eye(d)).max() > 1e-10:
            return f"irrep {p} does not map the identity to 1"
        gram = mats @ mats.conj().transpose(0, 2, 1)
        bad = np.flatnonzero(np.abs(gram - np.eye(d)).max(axis=(1, 2)) > 1e-10)
        if bad.size:
            return f"irrep {p} is not unitary at element {bad[0]}"
        for g in range(m):
            deviation = np.abs(mats[g] @ mats - mats[group.table[g]]).max(axis=(1, 2))
            bad = np.flatnonzero(deviation > 1e-10)
            if bad.size:
                return f"irrep {p} violates the homomorphism law at ({g}, {bad[0]})"
    rows = irreps.coefficient_rows()
    gram = rows.conj() @ rows.T
    expected = np.diag(np.repeat([m / d for d in irreps.dims], [d * d for d in irreps.dims]))
    if np.abs(gram - expected).max() > 1e-10 * m:
        return "matrix coefficients violate Schur orthogonality"
    return None


def _validation_message(irreps, group):
    try:
        irreps.validate(group)
    except cc.ConstructionError as exc:
        return str(exc)
    return None


def _perturbed(irreps, changes):
    """The table with ``matrices[p][g]`` replaced by ``f(matrices[p])`` for each
    ``(p, g, f)`` in ``changes``."""
    mats = [np.array(m) for m in irreps.matrices]
    for p, g, f in changes:
        mats[p][g] = f(mats[p])
    return cc.IrrepTable(tuple(mats))


PERTURBATIONS = {
    "phase": lambda g: lambda mats: np.exp(0.7j) * mats[g],  # unitary, not multiplicative
    "other-element": lambda g: lambda mats: mats[(g + 1) % len(mats)],
    "scaled": lambda g: lambda mats: 1.01 * mats[g],  # not unitary
}


@pytest.mark.parametrize("name", ["s3", "d4", "q8", "zn:6"])
def test_validation_matches_the_per_element_loop(name):
    """Every single-matrix perturbation of every irrep: same verdict, same message."""
    group, irreps = cc.builtin_group(name)
    assert _validation_message(irreps, group) is None
    messages = []
    for p, mats in enumerate(irreps.matrices):
        for g in range(group.order):
            for perturb in PERTURBATIONS.values():
                broken = _perturbed(irreps, [(p, g, perturb(g))])
                want = _validate_per_element(broken, group)
                assert _validation_message(broken, group) == want
                messages.append(want)
    assert any(m and "homomorphism" in m for m in messages)
    assert any(m and "unitary" in m for m in messages)
    assert any(m and "identity" in m for m in messages)


def test_validation_names_the_first_broken_irrep(s3):
    """Irrep order decides before element order: irrep 1 broken at a later
    element than irrep 2 is still the one named."""
    phase = PERTURBATIONS["phase"]
    broken = _perturbed(cc.s3_irreps(), [(2, 1, phase(1)), (1, 4, phase(4))])
    message = _validation_message(broken, s3)
    assert message == _validate_per_element(broken, s3)
    assert message.startswith("irrep 1 violates the homomorphism law at (")


def test_validation_of_a_broken_character(s3):
    """A 1x1 sign character made even at one odd element (still unitary)."""
    broken = _perturbed(cc.s3_irreps(), [(1, 3, lambda mats: -mats[3])])
    chi = broken.matrices[1][:, 0, 0]
    first = next(
        (g, h)
        for g in range(s3.order)
        for h in range(s3.order)
        if abs(chi[g] * chi[h] - chi[s3.table[g, h]]) > 1e-10
    )
    message = f"irrep 1 violates the homomorphism law at ({first[0]}, {first[1]})"
    assert _validation_message(broken, s3) == message == _validate_per_element(broken, s3)


def test_large_cyclic_table_builds_in_bounded_memory():
    # the associativity check must not materialise an m^3 index array
    tracemalloc.start()
    try:
        table = cc.cyclic_group(300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.order == 300
    assert peak < 50 * 2**20


@pytest.mark.parametrize("n", [1200, 2048])
def test_cyclic_characters_are_exact_at_large_orders(n):
    """``chi_j(g) = exp(2 pi i ((j g) mod n) / n)`` to the last bits, from the
    reduced exponent; powers of a rounded root of unity were off by 8e-11 at
    n = 2048.  ``IrrepTable.validate`` is not run here: it costs n**3."""
    g = np.arange(n)
    for j, chi in enumerate(cc.cyclic_irreps(n).matrices):
        angle = 2 * np.pi * ((j * g) % n) / n
        assert np.abs(chi[:, 0, 0] - (np.cos(angle) + 1j * np.sin(angle))).max() <= 1e-15
        assert np.abs(np.abs(chi[:, 0, 0]) - 1.0).max() <= 1e-15
