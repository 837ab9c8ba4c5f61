"""The CLI's front door: the argv walk over the flag table and the
indent-2 JSON writer.

Oracles: argv parsed by the full argparse parser, and json.dumps with
indent=2 (tests/oracles.py).  The walk must give the same namespace as
the full parser, and parse_args the same usage text, help and exit code;
the writer must give the same bytes as json.dumps on every report the CLI
writes.
"""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from oracles import json_dumps_text

from superchar import cli
from superchar.cyclotomic import Cyclotomic
from superchar.gf import field_construct
from superchar.table import build_table, table_to_json

ROOT = pathlib.Path(__file__).parents[1]
PERFBENCH = ROOT / "perfbench"


@lru_cache(maxsize=None)
def _perfbench(name):
    """perfbench/<name>.py, loaded from its file: perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _perfbench_ops():
    workloads = _perfbench("workloads")
    return workloads, [
        op for w in workloads.WORKLOADS.values() for _, op in w.ops(workloads.DEFAULT_SEED)
    ]


# ------------------------------------------------------------------ writer

_SPECIAL = st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "ζ", "\U0001d4b5", ""]
)
_TEXT = st.text() | st.lists(_SPECIAL).map("".join)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(1 << 200), 1 << 200)
    | _TEXT
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(_TEXT, children),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps(obj):
    assert cli.json_text(obj) == json_dumps_text(obj)


def test_writer_matches_json_dumps_on_report_values():
    # the values _json_default converts, alone and nested, at the top level
    # and inside containers
    z = Cyclotomic(5, [0, 1, 0, 0, 0])
    values = [
        Fraction(-3, 4),
        z,
        Cyclotomic.zero(5),
        {"a": [Fraction(1, 2), {"b": (z, Fraction(2))}], "c": []},
        [{}, [], (), [[]], {"": {}}],
    ]
    for obj in values + [values]:
        assert cli.json_text(obj) == json_dumps_text(obj)


@pytest.mark.parametrize("obj", [1.5, [0.0], {"x": float("nan")}])
def test_writer_refuses_float_values(obj):
    with pytest.raises(TypeError, match="float"):
        cli.json_text(obj)


@pytest.mark.parametrize("obj", [{1: "a"}, {"a": {None: 1}}, [{(1, 2): 3}]])
def test_writer_refuses_keys_that_are_not_str(obj):
    with pytest.raises(TypeError, match="keys must be str"):
        cli.json_text(obj)


def test_writer_refuses_what_the_reports_never_hold():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        cli.json_text([object()])
    with pytest.raises(TypeError, match="FieldElement is not JSON serializable"):
        cli.json_text({"colour": field_construct(3, 2).elements[4]})


def test_writer_matches_json_dumps_on_the_u4_f3_export():
    blob = table_to_json(build_table(4, field_construct(3, 1)))
    assert cli.json_text(blob) == json_dumps_text(blob)


@pytest.fixture
def checked_writer(monkeypatch):
    """cli.json_text, checked against json.dumps at every call."""
    written = []
    json_text = cli.json_text

    def checked(obj):
        text = json_text(obj)
        assert text == json_dumps_text(obj)
        written.append(text)
        return text

    monkeypatch.setattr(cli, "json_text", checked)
    return written


# every JSON report kind of tests/test_cli.py
CLI_TEST_ARGVS = [
    ["table", "--n", "3", "--p", "2"],
    ["table", "--n", "2", "--p", "3"],
    ["table", "--n", "3", "--p", "2", "--degree", "2"],
    ["classify", "--n", "3", "--p", "2", "--matrix", "a12=1,a13=1"],
    ["classify", "--n", "3", "--p", "2", "--matrix", "a12=1,a13=1", "--dual"],
    ["classify", "--n", "8", "--p", "2", "--matrix", "a13=1,a26=1", "--dual"],
    ["classify", "--n", "3", "--p", "5", "--matrix", ""],
    ["orbits", "--n", "4", "--p", "2", "--dual"],
    ["orbits", "--n", "3", "--p", "2"],
    ["verify", "--n", "3", "--p", "3", "--format", "json"],
    ["plancherel", "--n", "3", "--p", "2"],
    ["tower", "--n", "4", "--p", "2", "--degrees", "1,2", "--mode", "convergence",
     "--pi", "1,4/2/3", "--colours", "1,4=1", "--superclass", "1/2,3/4 | 2,3=1"],
    ["tower", "--n", "3", "--p", "2", "--degrees", "1,2", "--mode", "convergence",
     "--pi", "1,3/2", "--colours", "1,3=1", "--superclass", "1,3/2 | 1,3=1"],
    ["tower", "--n", "3", "--p", "2", "--degrees", "1,2", "--mode", "fsc"],
    ["tower", "--n", "3", "--p", "2", "--degrees", "1,2", "--mode", "plancherel"],
]


def test_writer_on_the_cli_test_reports(checked_writer, capsys):
    for argv in CLI_TEST_ARGVS:
        assert cli.main(argv) == 0, argv
    assert len(checked_writer) == len(CLI_TEST_ARGVS)
    capsys.readouterr()


def test_writer_on_the_benchmark_operations(checked_writer, capsys):
    # every operation of both workloads at the pinned seed, through main,
    # checked as the benchmark checks it: pinned sha256 and exit code, or
    # the label and closed size of a classify query
    workloads, ops = _perfbench_ops()
    expected = workloads.load_expected()
    for op in ops:
        code = cli.main(op.argv)
        out = capsys.readouterr().out
        assert workloads.check(op, code, out, expected) is None, op.key
    # verify writes text, every other operation one JSON report
    assert len(checked_writer) == sum(op.argv[0] != "verify" for op in ops) > 400


# ---------------------------------------------------------------- dispatch


def test_dispatch_gives_the_full_parser_namespace():
    _, ops = _perfbench_ops()
    parser = cli.build_parser()
    for op in ops:
        assert vars(cli.parse_args(op.argv)) == vars(parser.parse_args(op.argv)), op.key
        # none of them needs argparse: the walk accepts each
        assert cli._walk(op.argv) is not None, op.key


def test_dispatch_skips_the_full_parser(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full parser ran")

    monkeypatch.setattr(cli.build_parser(), "parse_args", refuse)
    args = cli.parse_args(["classify", "--n", "3", "--p", "2", "--matrix", "a12=1"])
    assert (args.command, args.n, args.p, args.degree) == ("classify", 3, 2, 1)
    assert args.handler is cli.cmd_classify


def _outcome(parse, argv, capsys):
    try:
        parse(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["frobnicate"],
    ["classify", "--n", "0", "--p", "2", "--matrix", ""],
    ["tower", "--n", "3", "--p", "2", "--mode", "bogus"],
    ["classify", "--n", "3", "--p", "2"],
    ["classify", "--n", "3", "--p", "2", "--matrix", "", "--bogus"],
    ["classify", "--n", "3", "--p", "2", "--matrix", "", "stray"],
    ["verify", "-h"],
    ["table", "--n", "three", "--p", "2"],
])
def test_dispatch_errors_match_the_full_parser(argv, capsys):
    direct = _outcome(cli.parse_args, argv, capsys)
    full = _outcome(cli.build_parser().parse_args, argv, capsys)
    assert direct == full
    code, out, err = direct
    assert code in (0, 2)
    assert (out if code == 0 else err).startswith("usage: superchar")


def test_main_reads_sys_argv_when_given_no_argv(monkeypatch, capsys):
    argv = ["classify", "--n", "3", "--p", "2", "--matrix", "a12=1,a13=1"]
    monkeypatch.setattr(sys, "argv", ["superchar"] + argv)
    assert cli.main() == 0
    from_sys_argv = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == from_sys_argv
    assert json.loads(from_sys_argv)["orbit_size"] == 2


# Tokens for argv: exact flags of every subcommand, abbreviations, --flag=value
# forms, values of each kind (negative numbers, bad types and choices, the
# empty string), -h, -- and stray positionals.
_FLAGS = sorted({option for _, _, flags in cli._COMMANDS.values() for option, _ in flags})
_TOKENS = st.sampled_from(_FLAGS + [
    "--deg", "--mat", "--m", "--max", "--val", "--fo", "--d", "--s", "--le",
    "--n=3", "--p=2", "--matrix=a12=1", "--mode=fsc", "--degree=2",
    "3", "2", "1", "0", "-1", "-3", "x", "", " 4", "3.0", "-", "--", "-h", "--help",
    "a12=1", "a12=1,a13=1", "json", "csv", "text", "full", "spot", "off",
    "fsc", "plancherel", "convergence", "1,2", "1,2,4", "1,3/2", "1,3=1",
    "1,3/2 | 1,3=1", "stray",
])
_COMMAND = st.sampled_from(sorted(cli._COMMANDS) + ["frobnicate", "-h", "--help", ""])
_VALUE = st.sampled_from(["3", "2", "4", "1", "0", "-2", "x", ""])


_GOOD = {
    "--n": ["3", "2", "04"], "--p": ["2", "3"], "--degree": ["1", "2"],
    "--degrees": ["1,2"], "--output": ["out.json"], "--format": ["json", "csv", "text"],
    "--validate": ["full", "spot", "off"], "--matrix": ["a12=1", ""],
    "--mode": ["convergence", "fsc", "plancherel"], "--pi": ["1,3/2"],
    "--colours": ["1,3=1"], "--superclass": ["1,3/2 | 1,3=1"], "--levels": ["1,2"],
}
_BAD = st.sampled_from(["0", "-1", "-3", "x", "3.0", "bogus", "--dual", "--n", "-h", "--"])


@st.composite
def _argv(draw):
    """Mostly near-valid argv: a subcommand's own flags in any order, each
    required one given nine times in ten and each other one four in ten,
    a value of the right kind three times in four, and then one token
    inserted or dropped a third of the time.  Otherwise a junk command."""
    if draw(st.integers(0, 9)) == 0:
        return [draw(_COMMAND)] + draw(st.lists(_TOKENS, max_size=6))
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    argv = [command]
    for option, keywords in draw(st.permutations(cli._COMMANDS[command][2])):
        if draw(st.integers(0, 9)) >= (9 if keywords.get("required") else 4):
            continue
        argv.append(option)
        if keywords.get("action") != "store_true":
            good = draw(st.integers(0, 3)) < 3
            argv.append(draw(st.sampled_from(_GOOD[option]) if good else _BAD))
    edit = draw(st.integers(0, 5))
    at = draw(st.integers(1, len(argv)))
    if edit < 2:
        argv.insert(at, draw(_TOKENS))
    elif edit == 2 and at < len(argv):
        del argv[at]
    return argv


def _parsed(parse, argv):
    """(attributes or None, exit code or None, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    attrs = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            attrs = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    return attrs, code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None)
@given(_argv())
def test_walk_matches_the_full_parser(argv):
    full = _parsed(cli.build_parser().parse_args, argv)
    walked = cli._walk(argv)
    if walked is not None:
        assert full == (vars(walked), None, "", "")
    assert _parsed(cli.parse_args, argv) == full


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_walk_accepts_valid_argv_in_any_order(data):
    # every flag of a subcommand with a good value, in any order, then up
    # to two flags again
    command = data.draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = data.draw(st.permutations(cli._COMMANDS[command][2]))
    argv = [command]
    for option, keywords in flags + data.draw(st.lists(st.sampled_from(flags), max_size=2)):
        argv.append(option)
        if keywords.get("action") != "store_true":
            argv.append(data.draw(st.sampled_from(keywords.get("choices") or _GOOD[option])))
    walked = cli._walk(argv)
    assert walked is not None, argv
    assert _parsed(cli.build_parser().parse_args, argv) == (vars(walked), None, "", "")


FAST_PATH_ARGVS = [
    ["classify", "--n", "5", "--p", "3", "--degree", "1", "--matrix", "a12=2,a35=1"],
    ["classify", "--n", "4", "--p", "2", "--degree", "2", "--matrix", "a13=[0,1]", "--dual"],
    ["tower", "--p", "2", "--degrees", "1,2", "--n", "4", "--mode", "convergence",
     "--pi", "1,4/2/3", "--colours", "1,4=1", "--superclass", "1/2,3/4 | 2,3=1"],
    ["tower", "--p", "2", "--degrees", "1,2", "--mode", "fsc", "--n", "3"],
]


def test_classify_and_tower_never_import_argparse():
    script = textwrap.dedent(f"""
        import contextlib, io, json, sys
        from superchar import cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in {FAST_PATH_ARGVS!r}]
        print(json.dumps([codes, "argparse" in sys.modules]))
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[0, 0, 0, 0], False]


def test_the_classify_stream_calls_each_traced_boundary_as_before(monkeypatch, capsys):
    # every name a superchar module holds the function by is replaced, as
    # the benchmark's tracer replaces it
    from superchar import dual, nilpotent, orbits

    calls = {}
    for name, module in [("parse_matrix", nilpotent), ("canonical_form", orbits),
                         ("dual_canonical", dual)]:
        fn = getattr(module, name)
        calls[name] = 0

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        for held in [m for k, m in sys.modules.items() if k.startswith("superchar")]:
            if getattr(held, name, None) is fn:
                monkeypatch.setattr(held, name, counted)
    workloads = _perfbench("workloads")
    for op in workloads.classify_ops(workloads.DEFAULT_SEED):
        assert cli.main(op.argv) == 0
    capsys.readouterr()
    assert calls == {"parse_matrix": 236, "canonical_form": 118, "dual_canonical": 118}


# ------------------------------------------------------- what others read


def test_every_tracer_boundary_resolves():
    # perfbench/tracer.py wraps each boundary it names by getattr, so a
    # name cut from its module would crash every traced benchmark run
    for module, attr, _ in _perfbench("tracer").BOUNDARIES:
        held = getattr(importlib.import_module(f"superchar.{module}"), attr, None)
        assert callable(held), f"superchar.{module}.{attr}"


def test_the_readme_library_example_runs_from_the_package():
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    start = library.index("```python\n") + len("```python\n")
    code = library[start:library.index("\n```", start)]
    assert "from superchar import" in code
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    # U_3(F_2): one line per supercharacter, its label and its 5 values
    lines = out.getvalue().splitlines()
    assert len(lines) == 5
    assert lines[0] == "1/2/3 ['1', '1', '1', '1', '1']"
