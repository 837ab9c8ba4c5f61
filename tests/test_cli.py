"""End-to-end CLI checks against byte-frozen golden files.

The golden table contents were regenerated by the orbit-averaging oracle
in test_table before being frozen here; these tests pin the serialized
form and the exit-code contract.
"""

import hashlib
import json
import pathlib
import sys

import pytest

from superchar import cli, field_construct, gf
from superchar import table as table_mod
from superchar.cli import main
from superchar.partitions import partition_stats

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_bytes()


# ----------------------------------------------------------------- table

def test_table_json_golden_bytes(tmp_path):
    code, got = _run_to_file(tmp_path, "t.json", ["table", "--n", "3", "--p", "2"])
    assert code == 0
    assert got == (GOLDEN / "u3f2_table.json").read_bytes()


def test_table_csv_golden_bytes(tmp_path):
    code, got = _run_to_file(
        tmp_path, "t.csv", ["table", "--n", "3", "--p", "2", "--format", "csv"])
    assert code == 0
    assert got == (GOLDEN / "u3f2_table.csv").read_bytes()


def test_table_json_golden_u2_f3(tmp_path):
    code, got = _run_to_file(tmp_path, "t.json", ["table", "--n", "2", "--p", "3"])
    assert code == 0
    assert got == (GOLDEN / "u2f3_table.json").read_bytes()


@pytest.mark.parametrize("argv,digest", [
    # U_4(F_3) has cells damped by nest depth 1
    (["table", "--n", "4", "--p", "3"],
     "88384ba4f1ad5c791abdf13d3fa64e43fc5a8edaafb354f30eed58939d83eee9"),
    (["table", "--n", "3", "--p", "7", "--format", "csv"],
     "d73f1667520ddd77c4a8e75144049e64514daa0e794044bdf118061c455c1262"),
])
def test_table_export_sha256(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table_deterministic_across_runs(tmp_path):
    argv = ["table", "--n", "3", "--p", "3"]
    _, first = _run_to_file(tmp_path, "a.json", argv)
    _, second = _run_to_file(tmp_path, "b.json", argv)
    assert first == second


def test_table_extension_field(tmp_path):
    code, got = _run_to_file(
        tmp_path, "t.json",
        ["table", "--n", "3", "--p", "2", "--degree", "2"])
    assert code == 0
    blob = json.loads(got)
    assert blob["group"]["q"] == 4
    assert blob["group"]["modulus"] == [1, 1, 1]
    assert len(blob["rows"]) == 19


@pytest.mark.parametrize("command", ["table", "verify"])
def test_broken_cell_of_a_large_table_reads_routes_disagree(monkeypatch, capsys, command):
    # U_3(F_3) counted as large, and a cell the seeded spot check does not
    # sample broken: every cell is compared at every size
    monkeypatch.setattr(table_mod, "_FULL_VALIDATION_LIMIT", 8)
    t = table_mod.build_table(3, field_construct(3, 1))
    sampled = set(table_mod._spot_pairs(t))
    i, j = next((i, j) for i in range(t.size) for j in range(1, len(t.superclasses))
                if (i, j) not in sampled)
    uncorrupted = table_mod._closed_cells

    def corrupted(rows, cols, field):
        # one cell: zeta^t becomes zeta^(t+1), and zero becomes one
        denom, cells = uncorrupted(rows, cols, field)
        cells = [list(line) for line in cells]
        cell = cells[i][j]
        cells[i][j] = tuple(((e + 1) % field.p, c) for e, c in cell) or ((0, denom),)
        return denom, cells

    monkeypatch.setattr(table_mod, "_closed_cells", corrupted)
    assert main([command, "--n", "3", "--p", "3"]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("check failed: routes disagree at row ")


@pytest.mark.parametrize("command", ["table", "verify"])
@pytest.mark.parametrize("value", ["full", "spot", "off"])
def test_table_and_verify_take_no_validate(capsys, command, value):
    with pytest.raises(SystemExit) as info:
        main([command, "--n", "3", "--p", "2", "--validate", value])
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"unrecognized arguments: --validate {value}" in out.err


def test_table_stdout(capsys):
    assert main(["table", "--n", "2", "--p", "2"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["group"] == {"n": 2, "p": 2, "m": 1, "q": 2,
                             "modulus": [0, 1], "order": 2}


# --------------------------------------------------------------- classify

def test_classify_superclass(capsys):
    code = main(["classify", "--n", "3", "--p", "2", "--matrix", "a12=1,a13=1"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["label_text"] == "1,2/3 | 1,2=1"
    assert blob["orbit_size"] == 2
    assert blob["dual"] is False
    assert blob["label"]["blocks"] == [[1, 2], [3]]


def test_classify_dual(capsys):
    code = main(["classify", "--n", "3", "--p", "2", "--matrix", "a12=1,a13=1",
                 "--dual"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["label_text"] == "1,3/2 | 1,3=1"
    assert blob["orbit_size"] == 4
    assert blob["dual"] is True


def test_classify_builds_no_orbit_matrices(capsys, monkeypatch):
    # labels come by elimination and sizes from the label: no orbit walk,
    # no NilMatrix built from a dense state, on either side
    from superchar import NilMatrix, dual, orbits

    calls = []
    from_dense = NilMatrix.from_dense.__func__
    walk = orbits.orbit_states

    def counting(cls, *args):
        calls.append(("from_dense", args))
        return from_dense(cls, *args)

    def counting_walk(*args, **kwargs):
        calls.append(("orbit_states", args))
        return walk(*args, **kwargs)

    monkeypatch.setattr(NilMatrix, "from_dense", classmethod(counting))
    monkeypatch.setattr(orbits, "orbit_states", counting_walk)
    monkeypatch.setattr(dual, "orbit_states", counting_walk)
    argv = ["classify", "--n", "4", "--p", "3", "--matrix", "a12=1,a13=2,a24=1"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["orbit_size"] == 9
    assert main(argv + ["--dual"]) == 0
    assert json.loads(capsys.readouterr().out)["orbit_size"] == 27
    assert calls == []


def test_classify_reuses_the_parser(capsys):
    # the parser is built once per process; no call may leak into the next
    argv = ["classify", "--n", "4", "--p", "3", "--matrix", "a12=1,a13=2,a24=1"]
    assert main(argv + ["--dual"]) == 0
    assert json.loads(capsys.readouterr().out)["dual"] is True
    assert main(argv) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["dual"] is False
    assert blob["orbit_size"] == 9
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--n", "4", "--p", "3"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == blob


@pytest.mark.parametrize(
    "matrix,dual,size",
    [
        ("a18=1", False, 1),  # e_18 is central: S(pi) is empty
        ("a18=1", True, 2 ** 12),  # r(pi) = 12, all (1,k) and (k,8)
        ("a12=1,a34=1", False, 2 ** 11),
        ("a13=1,a26=1", True, 2 ** 7),
    ],
)
def test_classify_beyond_the_space_cap(capsys, matrix, dual, size):
    # |A| = 2^28 exceeds the space cap, which only orbit walks obey
    argv = ["classify", "--n", "8", "--p", "2", "--matrix", matrix]
    assert main(argv + ["--dual"] * dual) == 0
    assert json.loads(capsys.readouterr().out)["orbit_size"] == size


def test_classify_zero_matrix(capsys):
    code = main(["classify", "--n", "3", "--p", "5", "--matrix", ""])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["label_text"] == "1/2/3"
    assert blob["orbit_size"] == 1


def test_classify_bad_matrix_exits_2(capsys):
    assert main(["classify", "--n", "3", "--p", "2", "--matrix", "a21=1"]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------- orbits

def test_orbits_dual_prediction_fields(capsys):
    code = main(["orbits", "--n", "4", "--p", "2", "--dual"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    rows = {r["label_text"]: r for r in blob["orbits"]}
    arc14 = rows["1,4/2/3 | 1,4=1"]
    assert arc14["size"] == 16
    assert arc14["r"] == 4
    assert arc14["size_predicted_by_r"] == 16
    assert arc14["prediction_matches"] is True
    assert all(r["prediction_matches"] for r in blob["orbits"])


def test_orbits_dual_failed_prediction_exits_1(capsys, monkeypatch):
    # with r(pi) one too large, the q^r(pi) prediction fails on every orbit
    # but the trivial one, and the report is still printed
    def wrong(pi):
        stats = partition_stats(pi)
        return stats._replace(r=stats.r + bool(pi.arcs()))

    monkeypatch.setattr(cli, "partition_stats", wrong)
    assert main(["orbits", "--n", "3", "--p", "2", "--dual"]) == 1
    rows = json.loads(capsys.readouterr().out)["orbits"]
    assert [r["prediction_matches"] for r in rows] == [True] + [False] * (len(rows) - 1)


def test_orbits_superclass_sizes(capsys):
    code = main(["orbits", "--n", "3", "--p", "2"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert [r["size"] for r in blob["orbits"]] == [1, 2, 2, 2, 1]
    assert sum(r["size"] for r in blob["orbits"]) == 8


def test_orbits_validate_full_needs_dual(capsys):
    # the replay checks the dual moves only; without --dual it would check
    # nothing, so the request is refused with exit 2 before any walk
    assert main(["orbits", "--n", "3", "--p", "2", "--validate", "full"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: --validate full replays the dual moves; add --dual\n"
    assert main(["orbits", "--n", "3", "--p", "2", "--validate", "full", "--dual"]) == 0
    rows = json.loads(capsys.readouterr().out)["orbits"]
    assert all(r["prediction_matches"] for r in rows)


@pytest.mark.parametrize("dual", [[], ["--dual"]], ids=["superclasses", "dual"])
def test_orbits_checks_the_space_cap_before_any_label(capsys, monkeypatch, dual):
    # |A| = 2^21: refused before the labels are enumerated, which at
    # --n 10 --p 3 would take minutes and gigabytes
    from superchar import orbits

    def no_labels(*args, **kwargs):
        raise AssertionError("labels enumerated above the space cap")

    monkeypatch.setattr(orbits, "enumerate_labels", no_labels)
    assert main(["orbits", "--n", "7", "--p", "2"] + dual) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == "error: |A| = 2^21 exceeds the space cap\n"


# ----------------------------------------------------------------- verify

def test_verify_text_golden(tmp_path):
    code, got = _run_to_file(tmp_path, "v.txt", ["verify", "--n", "3", "--p", "2"])
    assert code == 0
    assert got == (GOLDEN / "u3f2_verify.txt").read_bytes()


def test_verify_json(capsys):
    code = main(["verify", "--n", "3", "--p", "3", "--format", "json"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["all_passed"] is True
    assert len(blob["checks"]) == 8
    names = [c["check"] for c in blob["checks"]]
    assert "orthogonality" in names and "plancherel-identity" in names


# ------------------------------------------------------------- plancherel

def test_plancherel_weights(capsys):
    code = main(["plancherel", "--n", "3", "--p", "2"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["identity_holds"] is True
    weights = dict(blob["weights"])
    assert weights["1/2/3"] == "1/8"
    assert weights["1,3/2 | 1,3=1"] == "1/2"


@pytest.mark.parametrize("value", ["full", "spot", "off"])
def test_plancherel_takes_no_validate(capsys, value):
    with pytest.raises(SystemExit) as info:
        main(["plancherel", "--n", "3", "--p", "2", "--validate", value])
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"unrecognized arguments: --validate {value}" in out.err


@pytest.mark.parametrize("n,full,sampled", [
    ("3", 1, 0),   # |A| = 3^3 <= 4096: every cell at every member
    ("5", 0, 64),  # |A| = 3^10 > 4096: 64 seeded cells
])
def test_plancherel_picks_its_check_by_size(monkeypatch, capsys, n, full, sampled):
    calls = {"full": 0, "sampled": 0}

    def counting(name, real):
        def wrapped(*args):
            calls[name] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(table_mod, "_route_failure",
                        counting("full", table_mod._route_failure))
    monkeypatch.setattr(table_mod, "sch_bruteforce",
                        counting("sampled", table_mod.sch_bruteforce))
    assert main(["plancherel", "--n", n, "--p", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["identity_holds"] is True
    assert calls == {"full": full, "sampled": sampled}


# ------------------------------------------------------------------ tower

def test_tower_convergence_json(capsys):
    code = main(["tower", "--n", "4", "--p", "2", "--degrees", "1,2",
                 "--mode", "convergence", "--pi", "1,4/2/3",
                 "--colours", "1,4=1", "--superclass", "1/2,3/4 | 2,3=1"])
    assert code == 0  # healthy decay: magnitude law held at every level
    blob = json.loads(capsys.readouterr().out)
    assert blob["verdict"] == "norm decays as q_m^-1"
    assert [lvl["abs2"] for lvl in blob["levels"]] == ["1/4", "1/16"]


def test_tower_convergence_stabilized_exit_0(capsys):
    code = main(["tower", "--n", "3", "--p", "2", "--degrees", "1,2",
                 "--mode", "convergence", "--pi", "1,3/2",
                 "--colours", "1,3=1", "--superclass", "1,3/2 | 1,3=1"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["verdict"] == "stabilized at level 1"


def test_tower_fsc(capsys):
    code = main(["tower", "--n", "3", "--p", "2", "--degrees", "1,2",
                 "--mode", "fsc"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["stable_superclasses_match_center"] is True
    assert blob["stable_dual_orbits_match_superdiagonal"] is True


def test_tower_plancherel_profile(capsys):
    code = main(["tower", "--n", "3", "--p", "2", "--degrees", "1,2",
                 "--mode", "plancherel"])
    assert code == 0
    blob = json.loads(capsys.readouterr().out)
    assert [e["weight"] for e in blob["profile"]] == ["5/8", "49/64"]
    assert blob["strictly_increasing"] is True


# pinned at p = 3, where every other tower test runs at p = 2: the
# relative traces and embeddings of GF(3) < GF(9) < GF(81)
P3_TOWER = ["tower", "--p", "3", "--degrees", "1,2,4"]
_CONVERGENCE = P3_TOWER + ["--n", "3", "--pi", "1,3/2", "--colours", "1,3=2",
                           "--superclass", "1,3/2 | 1,3=1"]


@pytest.mark.parametrize("golden,argv", [
    ("u3f3_tower_fsc.json", ["--n", "3", "--mode", "fsc"]),
    ("u3f3_tower_plancherel.json", ["--n", "3", "--mode", "plancherel"]),
    ("u3f3_tower_stabilized.json",
     ["--n", "3", "--pi", "1,3/2", "--colours", "1,3=2", "--superclass", "1,3/2 | 1,3=1"]),
    ("u4f3_tower_decays.json",
     ["--n", "4", "--pi", "1,4/2/3", "--colours", "1,4=1",
      "--superclass", "1/2,3/4 | 2,3=2"]),
])
def test_tower_p3_golden_bytes(tmp_path, golden, argv):
    code, got = _run_to_file(tmp_path, golden, P3_TOWER + argv)
    assert code == 0
    assert got == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("mode,levels", [
    ("fsc", "2,2"), ("fsc", "3,1"), ("plancherel", "3,1"), ("plancherel", "2,2"),
])
def test_tower_levels_not_strictly_increasing_exit_2(capsys, mode, levels):
    code = main(["tower", "--n", "3", "--p", "2", "--degrees", "1,2,4",
                 "--mode", mode, "--levels", levels])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    shown = levels.replace(",", ", ")
    assert out.err == f"error: levels [{shown}] are not strictly increasing\n"


_NO_LABEL = "error: convergence mode needs --pi and --superclass\n"


def test_tower_convergence_requires_label_flags(capsys):
    code = main(["tower", "--n", "3", "--p", "2", "--degrees", "1,2",
                 "--mode", "convergence"])
    assert code == 2
    assert capsys.readouterr().err == _NO_LABEL


@pytest.mark.parametrize("given", [
    ["--pi", "1,3/2"],
    ["--superclass", "1,3/2 | 1,3=1"],
])
def test_tower_convergence_without_a_label_flag_is_an_error(capsys, given):
    # the same error: line as every other unusable input, through main
    code = main(["tower", "--n", "3", "--p", "2", "--degrees", "1,2"] + given)
    assert code == 2
    assert capsys.readouterr() == ("", _NO_LABEL)


def test_tower_takes_no_max_level(capsys):
    with pytest.raises(SystemExit) as info:
        main(_CONVERGENCE + ["--max-level", "1"])
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "unrecognized arguments: --max-level 1" in out.err


def test_tower_bad_degrees_exits_2(capsys):
    for degrees in ["2,3", "0,2", "0", "2,0"]:  # 0,2 once raised ZeroDivisionError
        code = main(["tower", "--n", "3", "--p", "2", "--degrees", degrees,
                     "--mode", "fsc"])
        assert code == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: "), degrees


# ------------------------------------------------------------- exit codes

# Input over the field cap or the space cap, each refused before any work
# on it: no p^m or q^N past the cap, no trial division, no position list.
_OVER_FIELD_CAP = {
    "p-2^61-1": ["verify", "--n", "2", "--p", "2305843009213693951"],
    "degree-10^8": ["verify", "--n", "2", "--p", "2", "--degree", "100000000"],
    "tower-degree-10^8": ["tower", "--n", "3", "--p", "2", "--degrees", "1,100000000",
                          "--mode", "fsc"],
}
_OVER_SPACE_CAP = {
    "verify-n-20000": ["verify", "--n", "20000", "--p", "2"],
    "orbits-n-20000": ["orbits", "--n", "20000", "--p", "2", "--dual"],
    "tower-n-20000": ["tower", "--n", "20000", "--p", "2", "--degrees", "1,2",
                      "--mode", "fsc"],
    "tower-n-20000-plancherel": ["tower", "--n", "20000", "--p", "2", "--degrees", "1,2",
                                 "--mode", "plancherel"],
}

# Unusable input of every kind; "{tmp}" stands for a fresh directory.
_UNUSABLE = {
    **_OVER_FIELD_CAP,
    **_OVER_SPACE_CAP,
    "unwritable-output": ["classify", "--n", "3", "--p", "2", "--matrix", "a12=1",
                          "--output", "{tmp}/missing/x.json"],
    # the open succeeds; the write or the close fails
    "full-device": ["classify", "--n", "2", "--p", "2", "--matrix", "a12=1",
                    "--output", "/dev/full"],
    "no-command": [],
    "unknown-command": ["frobnicate"],
    "zero-degree": ["tower", "--n", "3", "--p", "2", "--degrees", "0,2", "--mode", "fsc"],
    "validate-without-dual": ["orbits", "--n", "3", "--p", "2", "--validate", "full"],
    "n-zero": ["table", "--n", "0", "--p", "2"],
    "field-cap": ["table", "--n", "2", "--p", "65537"],
    "partition-cap": ["orbits", "--n", "13", "--p", "2"],
    "levels-repeat": ["tower", "--n", "3", "--p", "2", "--degrees", "1,2",
                      "--mode", "fsc", "--levels", "1,1"],
    "empty-degrees": ["tower", "--n", "3", "--p", "2", "--degrees", "", "--mode", "fsc"],
    "convergence-without-pi": ["tower", "--n", "3", "--p", "2", "--degrees", "1,2",
                               "--superclass", "1,3/2 | 1,3=1"],
    "lower-triangle": ["classify", "--n", "3", "--p", "2", "--matrix", "a21=1"],
    "one-level-fsc": ["tower", "--n", "3", "--p", "2", "--degrees", "1", "--mode", "fsc"],
    "classify-n-10": ["classify", "--n", "10", "--p", "2", "--matrix", "a12=1"],
    "p-not-prime": ["table", "--n", "2", "--p", "4"],
    "space-cap": ["table", "--n", "5", "--p", "5"],
    # the argv of the CI check, run after GF(2) is cached in this process
    "empty-cap": ["classify", "--n", "3", "--p", "2", "--matrix", "a12=1"],
    "plancherel-validate": ["plancherel", "--n", "3", "--p", "2", "--validate", "full"],
    "max-level-0": _CONVERGENCE + ["--max-level", "0"],
}


@pytest.mark.parametrize("case", sorted(_UNUSABLE))
def test_unusable_input_exits_2_with_an_error_line(monkeypatch, tmp_path, capsys, case):
    if case == "full-device" and not pathlib.Path("/dev/full").exists():
        pytest.skip("no /dev/full here")
    if case == "empty-cap":
        field_construct(2, 1)  # a cached field is still checked against the cap
        monkeypatch.setenv("SUPERCHAR_CAP", "")

    def no_work(arg):
        raise AssertionError(f"{case}: work done on {arg} above the cap")

    if case in _OVER_FIELD_CAP:  # no trial division
        field_construct(2, 1)  # the tower's first level, under the cap
        monkeypatch.setattr(gf, "is_prime", no_work)
    if case in _OVER_SPACE_CAP:  # no position list
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "superchar" and hasattr(mod, "positions"):
                monkeypatch.setattr(mod, "positions", no_work)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in _UNUSABLE[case]]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage error
        code = exc.code
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    last = out.err.splitlines()[-1]
    assert last.startswith("error: ") or (
        last.startswith("superchar") and ": error: " in last), last
    assert case not in _OVER_SPACE_CAP or "space cap" in last, last


@pytest.mark.parametrize("n,level,size", [("20000", 1, "2^199990000"), ("6", 2, "4^15")])
@pytest.mark.parametrize("mode,what", [("fsc", "growth"), ("plancherel", "a profile")])
def test_a_tower_scan_names_the_level_over_the_space_cap(capsys, n, level, size, mode, what):
    code = main(["tower", "--n", n, "--p", "2", "--degrees", "1,2", "--mode", mode])
    assert code == 2
    assert capsys.readouterr() == ("", f"error: {what} needs at least two feasible levels; "
                                       f"level {level}: |A| = {size} exceeds the space cap\n")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


@pytest.mark.parametrize("target,reason", [
    ("missing/x.json", "No such file or directory"),
    (".", "Is a directory"),
])
def test_unwritable_output_exits_2(tmp_path, capsys, target, reason):
    path = tmp_path / target
    code = main(["classify", "--n", "3", "--p", "2", "--matrix", "a12=1",
                 "--output", str(path)])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: cannot write --output {path}: {reason}\n"


_TOWER = ["tower", "--n", "4", "--p", "2", "--degrees", "1,2"]
_LABEL = ["--pi", "1,4/2/3", "--colours", "1,4=1", "--superclass", "1/2,3/4 | 2,3=1"]


@pytest.mark.parametrize("argv,err", [
    (_TOWER[:-1] + ["1,x", "--mode", "fsc"],
     "error: --degrees: expected comma-separated integers, got '1,x'\n"),
    (_TOWER + ["--mode", "fsc", "--levels", "1,y"],
     "error: --levels: expected comma-separated integers, got '1,y'\n"),
    (_TOWER + _LABEL[:3] + ["1,4=z"] + _LABEL[4:],
     "error: --colours: bad colour assignment '1,4=z'\n"),
    (_TOWER + ["--pi", "1,x/2/3"] + _LABEL[2:],
     "error: --pi: bad block '1,x'\n"),
    (["classify", "--n", "3", "--p", "2", "--matrix", "a12=1]"],
     "error: --matrix: bad value in assignment 'a12=1]'\n"),
    (["tower", "--p", "2", "--degrees", "1,2", "--n", "3", "--pi", "1,3/2",
      "--colours", "1,2=1", "--superclass", "1/2/3"],
     "error: --colours: colour domain [(1, 2)] != arc set [(1, 3)]\n"),
    (["tower", "--p", "2", "--degrees", "1,2", "--n", "3", "--pi", "1,3/2",
      "--colours", "1,3=0", "--superclass", "1/2/3"],
     "error: --colours: zero colour on arc (1, 3)\n"),
])
def test_unparseable_integers_name_their_flag(argv, err, capsys):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("raw", ["", "abc"])
def test_unparseable_cap_names_the_variable(monkeypatch, capsys, raw):
    # fsc reads the space cap at every level
    monkeypatch.setenv("SUPERCHAR_CAP", raw)
    assert main(_TOWER + ["--mode", "fsc"]) == 2
    assert capsys.readouterr() == (
        "", f"error: SUPERCHAR_CAP must be an integer, got {raw!r}\n")


def test_cap_violation_reports_error(capsys):
    code = main(["table", "--n", "13", "--p", "2"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify", "--n", "-1", "--p", "2", "--matrix", ""],
    ["classify", "--n", "0", "--p", "2", "--matrix", ""],
    ["verify", "--n", "0", "--p", "2"],
])
def test_matrix_size_below_one_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "matrix size must be at least 1" in err


def test_matrix_size_one_still_works(capsys):
    assert main(["classify", "--n", "1", "--p", "2", "--matrix", ""]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["label_text"] == "1"
    assert blob["orbit_size"] == 1
    assert main(["verify", "--n", "1", "--p", "3"]) == 0
    assert capsys.readouterr().out.count("PASS") == 8
