"""Supercharacter tables: two routes, axioms, inner products, Plancherel.

Oracle: the orbit-averaging route.  The golden 5x5 table below is
regenerated cell by cell from sch_bruteforce (never sch_closed) before the
closed route is compared against it.  The integer closed table, and its
JSON and CSV export, are compared cell by cell with the closed formula in
the Fraction-coordinate cyclotomics of tests/oracles.py.
"""

import json
import random
from fractions import Fraction

import pytest

import oracles
import superchar.table as table_mod
from oracles import group_mul
from superchar.cyclotomic import Cyclotomic
from superchar.dual import enumerate_dual_orbits
from superchar.gf import field_construct
from superchar.nilpotent import NilMatrix, group_inv, positions
from superchar.orbits import canonical_form, enumerate_superclasses
from superchar.partitions import format_coloured, parse_coloured
from superchar.table import (
    RouteDisagreement,
    build_table,
    inner_product,
    plancherel,
    sch_bruteforce,
    sch_closed,
    table_from_json,
    table_to_csv,
    table_to_json,
    verify_theory,
)
from test_route import ROUTE_CONFIGS, _table


GOLDEN_U3_F2 = [
    [1, 1, 1, 1, 1],
    [1, -1, 1, -1, 1],
    [1, 1, -1, -1, 1],
    [1, -1, -1, 1, 1],
    [1, 0, 0, 0, -1],
]


# ------------------------------------------------------------ brute route

def test_bruteforce_worked_examples():
    f = field_construct(2, 1)
    orbits = {format_coloured(o.label): o for o in enumerate_dual_orbits(3, f)}
    trivial = orbits["1/2/3"]
    big = orbits["1,3/2 | 1,3=1"]
    chain = orbits["1,2,3 | 1,2=1;2,3=1"]
    one = NilMatrix.zero(3, f).dense()
    g13 = NilMatrix.single(3, f, 1, 3, f.one).dense()
    g12 = NilMatrix.single(3, f, 1, 2, f.one).dense()
    assert big.size == 4
    for g in (one, g13, g12):
        assert sch_bruteforce(trivial, g) == 1
    assert sch_bruteforce(big, g13) == -1
    assert sch_bruteforce(big, g12) == Cyclotomic.zero(2)
    assert sch_bruteforce(big, one) == 1
    assert sch_bruteforce(chain, g12) == -1


def test_golden_table_regenerated_by_brute_force():
    f = field_construct(2, 1)
    orbits = enumerate_dual_orbits(3, f)
    classes = enumerate_superclasses(3, f)
    got = []
    for orb in orbits:
        row = []
        for sc in classes:
            row.append(oracles.rational_part(sch_bruteforce(orb, sc.rep.dense())))
        got.append(row)
    assert got == GOLDEN_U3_F2


# ------------------------------------------------------------ closed form

def test_closed_form_worked_examples():
    f2 = field_construct(2, 1)
    trivial = parse_coloured("1/2/3", 3, f2, dual=True)
    for col in (parse_coloured("1/2/3", 3, f2),
                parse_coloured("1,3/2 | 1,3=1", 3, f2),
                parse_coloured("1,2,3 | 1,2=1;2,3=1", 3, f2)):
        assert sch_closed(trivial, col, f2) == 1
    # (1,3) lies in the shadow of (1,2): value 0
    row = parse_coloured("1,3/2 | 1,3=1", 3, f2, dual=True)
    col = parse_coloured("1,2/3 | 1,2=1", 3, f2)
    assert sch_closed(row, col, f2) == Cyclotomic.zero(2)
    # nested arc at n=4: scale 1/2, pairing trivial
    row4 = parse_coloured("1,4/2/3 | 1,4=1", 4, f2, dual=True)
    col4 = parse_coloured("1/2,3/4 | 2,3=1", 4, f2)
    v = sch_closed(row4, col4, f2)
    assert oracles.rational_part(v) == Fraction(1, 2)


def test_closed_matches_brute_on_smaller_configs():
    for n, p, m in [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (3, 2, 2)]:
        f = field_construct(p, m)
        orbits = enumerate_dual_orbits(n, f)
        classes = enumerate_superclasses(n, f)
        for orb in orbits:
            for sc in classes:
                closed = sch_closed(orb.label, sc.label, f)
                brute = sch_bruteforce(orb, sc.rep.dense())
                assert closed == brute


@pytest.mark.parametrize("n,p,m", ROUTE_CONFIGS + [(5, 3, 1), (6, 2, 1)])
def test_integer_closed_table_equals_the_cyclotomic_oracle(n, p, m):
    # in Q(zeta_p): D * oracle - cell has all p coordinates equal, since
    # the p = 2 cells need not take _integer_cells' representative
    f = field_construct(p, m)
    t = build_table(n, f)
    denom, rows = t.integer_cells()
    for o, row in zip(t.dual_orbits, rows):
        for k, cell in zip(t.superclasses, row):
            diff = [denom * c for c in oracles.sch_closed(o.label, k.label, f).coeffs]
            diff.append(0)
            for e, c in cell:
                diff[e] -= c
            assert diff.count(diff[0]) == p, (o.label, k.label)


def test_route_disagreement_is_loud(monkeypatch):
    def corrupted(rows, cols, field):
        # +1 on every column with arcs: D more at exponent 0
        denom, cells = _uncorrupted(rows, cols, field)
        return denom, [
            [cell + ((0, denom),) if col.arcs() else cell
             for col, cell in zip(cols, line)]
            for line in cells
        ]

    _uncorrupted = table_mod._closed_cells
    monkeypatch.setattr(table_mod, "_closed_cells", corrupted)
    f = field_construct(2, 1)
    with pytest.raises(RouteDisagreement) as info:
        build_table(3, f, full=True)
    assert "closed" in str(info.value)


# ------------------------------------------------------------- the tables

def test_build_table_golden_u3_f2():
    f = field_construct(2, 1)
    t = build_table(3, f, full=True)
    assert [format_coloured(lab) for lab in t.col_labels()] == [
        "1/2/3", "1,2/3 | 1,2=1", "1/2,3 | 2,3=1",
        "1,2,3 | 1,2=1;2,3=1", "1,3/2 | 1,3=1"]
    assert [[oracles.rational_part(v) for v in row] for row in t.values] == GOLDEN_U3_F2
    assert [sc.size for sc in t.superclasses] == [1, 2, 2, 2, 1]
    assert [o.size for o in t.dual_orbits] == [1, 1, 1, 1, 4]
    assert t.order == 8


def test_build_table_n1():
    f = field_construct(3, 1)
    t = build_table(1, f)
    assert t.size == 1
    assert t.values[0][0] == 1


def test_build_table_u2_f3_is_cyclic_character_table():
    f = field_construct(3, 1)
    t = build_table(2, f, full=True)
    one, z, z2 = (oracles.root(3, k) for k in range(3))
    assert t.values == ((one, one, one), (one, z, z2), (one, z2, z))
    assert all(sc.size == 1 for sc in t.superclasses)


def test_identity_column_is_normalized():
    for n, p, m in [(3, 2, 1), (3, 3, 1), (4, 2, 1), (3, 2, 2)]:
        f = field_construct(p, m)
        t = build_table(n, f)
        assert all(row[0] == 1 for row in t.values)


# ---------------------------------------------------------------- axioms

def test_verify_theory_passes_small_sweep():
    for n, p, m in [(1, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (2, 5, 1),
                    (3, 2, 2)]:
        f = field_construct(p, m)
        t = build_table(n, f)
        report = verify_theory(t)
        assert len(report) == 8
        failed = [name for (name, ok, _) in report if not ok]
        assert failed == []


def test_verify_theory_counts_u3():
    f = field_construct(2, 1)
    report = dict((name, detail) for (name, _, detail) in
                  verify_theory(build_table(3, f)))
    assert "5" in report["label-count"]
    f3 = field_construct(3, 1)
    report3 = dict((name, detail) for (name, _, detail) in
                   verify_theory(build_table(3, f3)))
    assert "11" in report3["label-count"]


def test_verify_theory_detects_corruption():
    f = field_construct(2, 1)
    t = build_table(3, f)
    values = [list(row) for row in t.values]
    values[4][4] = oracles.root(2, 0)  # break the (1,3) cell
    report = verify_theory(oracles.with_values(t, values))
    failed = {name for (name, ok, _) in report if not ok}
    assert "orthogonality" in failed or "plancherel-identity" in failed


def test_identity_normalization_checks_every_row():
    t = build_table(3, field_construct(3, 1))
    values = [list(row) for row in t.values]
    values[-1][0] = oracles.root(3)  # the last row, at the identity class
    checks = verify_theory(oracles.with_values(t, values))
    report = {name: (ok, detail) for name, ok, detail in checks}
    assert report["identity-normalization"] == (False, "xi(1) = 1 on every row")


def test_inner_products_worked_examples():
    f = field_construct(2, 1)
    t = build_table(3, f, full=True)
    assert oracles.rational_part(inner_product(t, 0, 0)) == 1
    assert oracles.rational_part(inner_product(t, 4, 4)) == Fraction(1, 4)
    for i in range(5):
        for j in range(5):
            v = inner_product(t, i, j)
            if i == j:
                assert oracles.rational_part(v) == Fraction(1, t.dual_orbits[i].size)
            else:
                assert v == Cyclotomic.zero(2)


def test_plancherel_worked_examples():
    f = field_construct(2, 1)
    t = build_table(3, f)
    report = plancherel(t)
    assert report["identity_holds"] and not report["failures"]
    weights = dict(report["weights"])
    assert weights["1/2/3"] == Fraction(1, 8)
    assert weights["1,3/2 | 1,3=1"] == Fraction(4, 8)
    assert sum(weights.values()) == 1
    # row sums behind the identity, from the golden table
    sizes = [1, 1, 1, 1, 4]
    for col in range(1, 5):
        acc = sum(Fraction(sizes[r]) * GOLDEN_U3_F2[r][col] for r in range(5))
        assert acc == 0
    assert sum(Fraction(sizes[r]) * GOLDEN_U3_F2[r][0] for r in range(5)) == 8


def test_conjugate_symmetry_on_inverses():
    for n, p, m in [(3, 3, 1), (3, 2, 2)]:
        f = field_construct(p, m)
        t = build_table(n, f)
        cols = {format_coloured(sc.label): k
                for k, sc in enumerate(t.superclasses)}
        for k, sc in enumerate(t.superclasses):
            ki = cols[format_coloured(canonical_form(group_inv(sc.rep)))]
            for row in t.values:
                assert row[ki] == oracles.conj(row[k])


# ----------------------------------------------------------------- spot

def test_spot_validation_runs_on_larger_config(monkeypatch):
    monkeypatch.setattr(table_mod, "_FULL_VALIDATION_LIMIT", 0)  # U_4(F_3) taken as large
    f = field_construct(3, 1)
    t = build_table(4, f)
    assert t.size == 49
    assert sum(sc.size for sc in t.superclasses) == 3 ** 6


# ---------------------------------------------------------- serialization

def test_json_round_trip():
    f = field_construct(3, 1)
    t = build_table(3, f)
    blob = table_to_json(t)
    back = table_from_json(blob)
    assert back == t
    text = json.dumps(blob)
    assert table_from_json(json.loads(text)) == t


@pytest.mark.parametrize("cut", ["last column", "last row"])
def test_json_values_of_the_wrong_shape_are_refused(cut):
    # unchecked, a dropped column's class is skipped by plancherel, which
    # then reports the identity as holding, and a dropped row IndexErrors
    blob = table_to_json(build_table(3, field_construct(3, 1)))
    if cut == "last column":
        blob["values"] = [row[:-1] for row in blob["values"]]
    else:
        blob["values"] = blob["values"][:-1]
    with pytest.raises(ValueError, match="not 11 rows x 11 columns"):
        table_from_json(blob)


def test_json_values_outside_the_table_field_are_refused():
    blob = table_to_json(build_table(2, field_construct(3, 1)))
    blob["values"][1][1] = oracles.root(5).to_json()
    with pytest.raises(ValueError, match="outside Q\\(zeta_3\\)"):
        table_from_json(blob)


@pytest.mark.parametrize("n,p,m", ROUTE_CONFIGS)
def test_export_equals_the_fraction_oracle_rendering(n, p, m):
    # the same axes with every value from the Fraction-coordinate oracle
    t = build_table(n, field_construct(p, m))
    view = oracles.closed_view(t)
    assert table_to_json(t) == table_to_json(view)
    assert table_to_csv(t) == table_to_csv(view)


def test_parsed_table_plancherel_and_verify():
    # a table read back from JSON has the axes of build_table, so it verifies
    for n, q in [(2, 2), (3, 3)]:
        t = build_table(n, field_construct(q, 1))
        back = table_from_json(table_to_json(t))
        assert plancherel(back) == plancherel(t)
        assert plancherel(back)["identity_holds"]
        assert all(ok for _, ok, _ in verify_theory(back))


@pytest.mark.parametrize("n,p,m", ROUTE_CONFIGS)
def test_read_back_table_verifies_as_the_built_one(n, p, m):
    # the read-back axes are walked afresh and its route computed anew
    t = _table(n, p, m)
    assert verify_theory(table_from_json(table_to_json(t))) == verify_theory(t)


def test_a_swapped_stored_value_fails_superclass_constancy():
    blob = table_to_json(build_table(3, field_construct(3, 1)))
    i = len(blob["values"]) - 1
    row = blob["values"][i]
    j, k = next((j, k) for j in range(1, len(row)) for k in range(j + 1, len(row))
                if row[j] != row[k])
    row[j], row[k] = row[k], row[j]
    report = {name: (ok, detail) for name, ok, detail in
              verify_theory(table_from_json(blob))}
    ok, detail = report["superclass-constancy"]
    assert not ok
    assert detail.startswith(f"row {i}, column {j}, member ")


@pytest.mark.parametrize("axis", ["rows", "cols"])
def test_a_changed_stored_size_is_refused_at_read_time(axis):
    blob = table_to_json(build_table(3, field_construct(3, 1)))
    blob[axis][-1]["size"] += 1
    with pytest.raises(ValueError, match="is not its closed size"):
        table_from_json(blob)


def test_json_shape():
    f = field_construct(2, 1)
    blob = table_to_json(build_table(3, f))
    assert blob["group"] == {"n": 3, "p": 2, "m": 1, "q": 2,
                             "modulus": [0, 1], "order": 8}
    assert blob["rows"][0]["label"] == {"blocks": [[1], [2], [3]],
                                        "colours": {}, "dual": True}
    assert [r["label_text"] for r in blob["rows"]] == [
        "1/2/3", "1,2/3 | 1,2=1", "1/2,3 | 2,3=1",
        "1,2,3 | 1,2=1;2,3=1", "1,3/2 | 1,3=1"]
    assert blob["rows"][4]["weight"] == "1/2"
    assert blob["rows"][0]["weight"] == "1/8"
    assert blob["cols"][4]["label_text"] == "1,3/2 | 1,3=1"
    assert len(blob["values"]) == 5 and len(blob["values"][0]) == 5


def test_csv_shape():
    f = field_construct(2, 1)
    text = table_to_csv(build_table(3, f))
    lines = text.splitlines()
    assert lines[0].startswith("label,size,weight,")
    assert lines[1].startswith("class-size,,,")
    assert len(lines) == 7
    assert lines[2].split(",")[0] == "1/2/3"


# ------------------------------------------------------------ psd proxy

def test_gram_matrices_are_psd_numerically():
    numpy = pytest.importorskip("numpy")
    rng = random.Random(55)
    f = field_construct(2, 1)
    t = build_table(3, f)
    cols = {format_coloured(sc.label): k for k, sc in enumerate(t.superclasses)}

    def value(row, g):
        lab = canonical_form(g)
        return t.values[row][cols[format_coloured(lab)]]

    def random_group_element():
        entries = {}
        for pos in positions(3):
            v = f.element_by_index(rng.randrange(f.order))
            if v != f.zero:
                entries[pos] = v
        return NilMatrix(3, f, entries)  # the body of a group element

    for _ in range(20):
        sample = [random_group_element() for _ in range(6)]
        for row in range(t.size):
            gram = numpy.zeros((6, 6), dtype=complex)
            for i in range(6):
                for j in range(6):
                    g = group_mul(sample[i], group_inv(sample[j]))
                    gram[i, j] = oracles.complex_value(value(row, g))
            eigs = numpy.linalg.eigvalsh(gram)
            assert eigs.min() >= -1e-9
