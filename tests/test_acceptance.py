"""Acceptance gate: ten criteria, each one test, each printing a verdict.

Tables are built once with full route cross-validation and shared between
criteria.  Everything here is exact arithmetic except the PSD proxy in
criterion 10, which is explicitly a numerical check.
"""

import random
import time
from fractions import Fraction

import pytest

from oracles import complex_value, conj, dual_eval, elementary_generators, group_mul
from superchar.cyclotomic import Cyclotomic
from superchar.dual import dual_act, dual_orbit, enumerate_dual_orbits
from superchar.gf import field_construct
from superchar.nilpotent import NilMatrix, group_inv, positions
from superchar.orbits import canonical_form, enumerate_superclasses
from superchar.partitions import (
    build_e,
    count_labels,
    enumerate_labels,
    format_coloured,
    parse_coloured,
)
from superchar.table import build_table, inner_product, plancherel, sch_bruteforce
from superchar.tower import (
    FieldTower,
    TowerLabel,
    convergence_report,
    fsc_diagnostic,
    plancherel_profile,
)

CONFIGS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]

_TABLES = {}
_BUILD_SECONDS = {}


def _table(n, q):
    if (n, q) not in _TABLES:
        start = time.perf_counter()
        _TABLES[(n, q)] = build_table(n, field_construct(q, 1), full=True)
        _BUILD_SECONDS[(n, q)] = time.perf_counter() - start
    return _TABLES[(n, q)]


def _random_matrix(n, f, rng):
    entries = {}
    for pos in positions(n):
        v = f.element_by_index(rng.randrange(f.order))
        if v != f.zero:
            entries[pos] = v
    return NilMatrix(n, f, entries)


def _column_index(t):
    return {format_coloured(sc.label): k for k, sc in enumerate(t.superclasses)}


def test_c01_route_equivalence():
    # build_table(full=True) compares sch_closed with the averaging
    # route, read from the additive Fourier transform of the dual orbits,
    # on every (dual orbit, superclass) pair and raises on any mismatch
    start = time.perf_counter()
    for n, q in CONFIGS:
        t = _table(n, q)
        assert t.size == count_labels(n, q)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    pairs = sum(_TABLES[c].size ** 2 for c in CONFIGS)
    print(f"ACCEPTANCE 1 route equivalence: PASS "
          f"({len(CONFIGS)} configs, {pairs} pairs, {elapsed:.2f}s)")


def test_c02_counting():
    expected = {(3, 2): 5, (3, 3): 11, (4, 2): 15}
    for n, q in CONFIGS:
        t = _table(n, q)
        count = count_labels(n, q)
        assert len(t.superclasses) == count
        assert len(t.dual_orbits) == count
        space = q ** (n * (n - 1) // 2)
        assert sum(sc.size for sc in t.superclasses) == space
        assert sum(o.size for o in t.dual_orbits) == space
        if (n, q) in expected:
            assert count == expected[(n, q)]
    print("ACCEPTANCE 2 counting: PASS (5 / 11 / 15 and size sums exact)")


def test_c03_golden_table():
    golden = [
        [1, 1, 1, 1, 1],
        [1, -1, 1, -1, 1],
        [1, 1, -1, -1, 1],
        [1, -1, -1, 1, 1],
        [1, 0, 0, 0, -1],
    ]
    f = field_construct(2, 1)
    orbits = enumerate_dual_orbits(3, f)
    classes = enumerate_superclasses(3, f)
    regenerated = [
        [sch_bruteforce(o, sc.rep.dense()) for sc in classes]
        for o in orbits
    ]
    assert regenerated == golden
    t = _table(3, 2)
    assert [list(row) for row in t.values] == golden
    print("ACCEPTANCE 3 golden table: PASS (U_3(F_2) regenerated by the "
          "averaging oracle)")


def test_c04_orthogonality():
    checked = 0
    for n, q in CONFIGS:
        t = _table(n, q)
        p = t.field.p
        for i in range(t.size):
            for j in range(t.size):
                v = inner_product(t, i, j)
                if i == j:
                    assert v == Fraction(1, t.dual_orbits[i].size)
                else:
                    assert v == Cyclotomic.zero(p)
                checked += 1
    print(f"ACCEPTANCE 4 orthogonality: PASS ({checked} inner products exact)")


def test_c05_super_plancherel():
    for n, q in CONFIGS:
        report = plancherel(_table(n, q))
        assert report["identity_holds"], report["failures"]
        assert sum(w for (_, w) in report["weights"]) == 1
    print("ACCEPTANCE 5 super-Plancherel: PASS (delta_{g,1} exact on all "
          f"{len(CONFIGS)} configs)")


def test_c06_elementary_orbit_sizes():
    checked = 0
    for q in (2, 3):
        f = field_construct(q, 1)
        for n in range(2, 6):
            for i in range(1, n):
                for j in range(i + 1, n + 1):
                    b = NilMatrix.single(n, f, i, j, f.one)
                    assert len(dual_orbit(b)) == q ** (2 * (j - i - 1))
                    checked += 1
    print(f"ACCEPTANCE 6 elementary orbit sizes: PASS ({checked} arcs, "
          "q^(2(j-i-1)) exact)")


def test_c07_tower_convergence():
    start = time.perf_counter()
    tower = FieldTower(2, (1, 2, 6))
    f2 = tower.field(1)
    label = TowerLabel.from_level1(
        tower, parse_coloured("1,4/2/3 | 1,4=1", 4, f2, dual=True))
    col = parse_coloured("1/2,3/4 | 2,3=1", 4, f2)
    rep = convergence_report(label, col)
    assert [e["abs2"] for e in rep["levels"]] == [
        Fraction(1, 4), Fraction(1, 16), Fraction(1, 4096)]
    assert rep["limit"] == Cyclotomic.zero(2)
    # every nest-0 reachable (label, class) pair stabilizes exactly from
    # its first fully-defined level
    stabilized = 0
    for row in enumerate_labels(4, f2, dual=True):
        tl = TowerLabel.from_level1(tower, row)
        for c in enumerate_labels(4, f2):
            r = convergence_report(tl, c)
            if r["limit"]:
                assert r["stabilized"], (format_coloured(row), format_coloured(c))
                values = [e["value"] for e in r["levels"] if e["defined"]]
                assert all(v == r["limit"] for v in values)
                stabilized += 1
            elif r["nest"] == 0:
                # reach failed: dead at every level
                assert all(e["value"] == Cyclotomic.zero(2)
                           for e in r["levels"] if e["defined"])
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 7 tower convergence: PASS (magnitudes 1/2, 1/4, 1/64; "
          f"{stabilized} stabilizing pairs; {elapsed:.2f}s)")


def test_c08_fsc_diagnostics():
    rep = fsc_diagnostic(3, FieldTower(2, (1, 2)))
    assert rep["stable_superclasses_match_center"]
    assert rep["stable_dual_orbits_match_superdiagonal"]
    stable_sc = {r["label"] for r in rep["superclasses"] if r["stable"]}
    assert stable_sc == {"1/2/3", "1,3/2 | 1,3=1"}
    stable_du = {r["label"] for r in rep["dual_orbits"] if r["stable"]}
    assert stable_du == {"1/2/3", "1,2/3 | 1,2=1", "1/2,3 | 2,3=1",
                         "1,2,3 | 1,2=1;2,3=1"}
    print("ACCEPTANCE 8 fsc diagnostics: PASS (stable classes = center, "
          "stable duals = superdiagonal)")


def test_c09_plancherel_concentration():
    rep = plancherel_profile(3, FieldTower(2, (1, 2)))
    weights = [e["weight"] for e in rep["profile"]]
    assert weights == [Fraction(5, 8), Fraction(49, 64)]
    for e in rep["profile"]:
        q = e["q"]
        assert e["weight"] == Fraction(1 + (q - 1) * q * q, q ** 3)
    assert rep["strictly_increasing"]
    print("ACCEPTANCE 9 Plancherel concentration: PASS (5/8 then 49/64, "
          "strictly increasing)")


def test_c10_property_suites():
    # canonical_form idempotence and orbit-constancy, 1000 draws per config
    rng = random.Random(2024)
    for n, q in CONFIGS:
        f = field_construct(q, 1)
        gens = elementary_generators(n, f)
        for _ in range(1000):
            a = _random_matrix(n, f, rng)
            lab = canonical_form(a)
            assert canonical_form(build_e(lab, f)) == lab
            b = a
            for _ in range(12):
                g = gens[rng.randrange(len(gens))]
                if rng.randrange(2):
                    b = b + g @ b
                else:
                    b = b + b @ g
            assert canonical_form(b) == lab

    # dual_act: left-action law and the defining pairing property
    duals = [(3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2)]
    for k in range(1000):
        n, p, m = duals[k % len(duals)]
        f = field_construct(p, m)
        b = _random_matrix(n, f, rng)
        g1, h1, g2, h2 = (_random_matrix(n, f, rng) for _ in range(4))
        moved = dual_act(g1, h1, b)
        assert dual_act(g2, h2, moved) == dual_act(
            group_mul(g2, g1), group_mul(h2, h1), b
        )
        for (i, j) in positions(n):
            a = NilMatrix.single(n, f, i, j, f.one)
            c, d = group_inv(g1), h1
            transported = a + c @ a + a @ d + c @ (a @ d)
            assert dual_eval(moved, a) == dual_eval(b, transported)

    # conjugate symmetry on the full tables of criterion 1
    for n, q in CONFIGS:
        t = _table(n, q)
        cols = _column_index(t)
        for k, sc in enumerate(t.superclasses):
            ki = cols[format_coloured(canonical_form(group_inv(sc.rep)))]
            for row in t.values:
                assert row[ki] == conj(row[k])

    # PSD Gram proxy: 50 samples of 6 group elements
    numpy = pytest.importorskip("numpy")
    psd_samples = 0
    for n, q in [(3, 2), (3, 3)]:
        t = _table(n, q)
        f = t.field
        cols = _column_index(t)
        for _ in range(25):
            sample = [_random_matrix(n, f, rng) for _ in range(6)]
            for row in t.values:
                gram = numpy.zeros((6, 6), dtype=complex)
                for i in range(6):
                    for j in range(6):
                        g = group_mul(sample[i], group_inv(sample[j]))
                        lab = canonical_form(g)
                        gram[i, j] = complex_value(row[cols[format_coloured(lab)]])
                assert numpy.linalg.eigvalsh(gram).min() >= -1e-9
            psd_samples += 1
    assert psd_samples == 50
    print("ACCEPTANCE 10 property suites: PASS (7000 canonical forms, 1000 "
          "action triples, conjugate symmetry, 50 PSD samples)")
