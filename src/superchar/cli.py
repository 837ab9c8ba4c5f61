"""Command-line front door.

Every command is flag-driven and byte-deterministic: fixed label orders,
exact values, seeded spot checks.  Exit codes: 0 success, 1 a verification
or identity check failed, 2 unusable input or an enumeration cap was hit.
Each subcommand's flags are declared once, in _COMMANDS: parse_args walks
argv against that table and leaves what it does not accept to argparse,
built from the same table, which gives the usage, help and exit 2.
table and verify always run the full route cross-check; plancherel takes
build_table's size rule, the full cross-check up to |A| = 4096 and a
64-cell spot check above it.  tower's convergence mode reports every
level of --degrees.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _quote
from types import SimpleNamespace

from .cyclotomic import Cyclotomic
from .dual import dual_canonical, enumerate_dual_orbits
from .gf import FiniteField, field_construct
from .nilpotent import parse_matrix, format_matrix
from .orbits import canonical_form, enumerate_superclasses
from .partitions import (
    ColouredPartition,
    closed_size,
    format_coloured,
    parse_coloured,
    parse_colours,
    parse_partition,
    partition_stats,
)
from .table import (
    _group_json,
    build_table,
    plancherel,
    table_to_csv,
    table_to_json,
    verify_theory,
)
from .tower import (
    FieldTower,
    TowerLabel,
    convergence_report,
    fsc_diagnostic,
    plancherel_profile,
)


def _json_default(obj):
    """The JSON form of the values the reports hold besides JSON types."""
    if isinstance(obj, Cyclotomic):
        return obj.to_json()
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _emit(text: str, output: str | None) -> None:
    if output:
        try:  # open, write or close: unusable input, exit 2, not a traceback
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --output {output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def json_text(obj) -> str:
    """obj as JSON with a two-space indent: byte-identical to
    json.dumps(obj, indent=2, default=_json_default), without the
    pure-Python encoder that indent forces on json.dumps.

    Strings and keys go through the C ASCII escaper, ints through
    int.__repr__, and every other value through _json_default.  A float
    value or a non-str key raises TypeError; no report holds either.
    """
    out: list[str] = []
    _write(obj, out.append, "\n")
    return "".join(out)


def _write(obj, emit, nl: str) -> None:
    """Emit obj, a value whose first line is already placed and whose
    closing bracket goes after nl, the newline and indent of its line."""
    if isinstance(obj, str):
        emit(_quote(obj))
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    elif isinstance(obj, float):
        raise TypeError("float values are not written")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            # the two leaf types of most cells, inline; the rest recurse
            if type(value) is str:
                emit(sep + _quote(value))
            elif type(value) is int:
                emit(sep + int.__repr__(value))
            else:
                emit(sep)
                _write(value, emit, inner)
            sep = "," + inner
        emit(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            if type(value) is str:
                emit(sep + _quote(key) + ": " + _quote(value))
            elif type(value) is int:
                emit(sep + _quote(key) + ": " + int.__repr__(value))
            else:
                emit(sep + _quote(key) + ": ")
                _write(value, emit, inner)
            sep = "," + inner
        emit(nl + "}")
    else:
        _write(_json_default(obj), emit, nl)


def _emit_json(obj, output: str | None) -> None:
    _emit(json_text(obj) + "\n", output)


def _field(args) -> FiniteField:
    return field_construct(args.p, args.degree)


def cmd_table(args) -> int:
    field = _field(args)
    table = build_table(args.n, field, full=True)
    failures = [c for c in verify_theory(table) if not c[1]]
    for name, _, detail in failures:
        print(f"FAIL {name}: {detail}", file=sys.stderr)
    if failures:
        return 1
    if args.format == "csv":
        _emit(table_to_csv(table), args.output)
    else:
        _emit_json(table_to_json(table), args.output)
    return 0


def cmd_classify(args) -> int:
    field = _field(args)
    a = _read("--matrix", parse_matrix, args.matrix, args.n, field)
    label = dual_canonical(a) if args.dual else canonical_form(a)
    _emit_json(
        {
            "group": _group_json(args.n, field),
            "dual": bool(args.dual),
            "input": format_matrix(a),
            "label": label.to_json(),
            "label_text": format_coloured(label),
            "orbit_size": closed_size(label, field.order),
        },
        args.output,
    )
    return 0


def cmd_orbits(args) -> int:
    if args.validate == "full" and not args.dual:
        raise ValueError("--validate full replays the dual moves; add --dual")
    field = _field(args)
    rows = []
    if args.dual:
        orbits = enumerate_dual_orbits(
            args.n, field, validate=args.validate == "full"
        )
        for o in orbits:
            predicted = field.order ** partition_stats(o.label.partition).r
            rows.append(
                {
                    "label": o.label.to_json(),
                    "label_text": format_coloured(o.label),
                    "size": o.size,
                    "r": partition_stats(o.label.partition).r,
                    "size_predicted_by_r": predicted,
                    "prediction_matches": predicted == o.size,
                }
            )
    else:
        for k in enumerate_superclasses(args.n, field):
            rows.append(
                {
                    "label": k.label.to_json(),
                    "label_text": format_coloured(k.label),
                    "size": k.size,
                }
            )
    _emit_json(
        {
            "group": _group_json(args.n, field),
            "dual": bool(args.dual),
            "orbits": rows,
        },
        args.output,
    )
    return 1 if args.dual and not all(r["prediction_matches"] for r in rows) else 0


def cmd_verify(args) -> int:
    field = _field(args)
    table = build_table(args.n, field, full=True)
    checks = verify_theory(table)
    if args.format == "json":
        _emit_json(
            {
                "group": _group_json(args.n, field),
                "checks": [
                    {"check": name, "passed": ok, "detail": detail}
                    for name, ok, detail in checks
                ],
                "all_passed": all(ok for _, ok, _ in checks),
            },
            args.output,
        )
    else:
        lines = [
            f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
            for name, ok, detail in checks
        ]
        _emit("\n".join(lines) + "\n", args.output)
    return 0 if all(ok for _, ok, _ in checks) else 1


def cmd_plancherel(args) -> int:
    field = _field(args)
    report = plancherel(build_table(args.n, field))
    _emit_json({"group": _group_json(args.n, field), **report}, args.output)
    return 0 if report["identity_holds"] else 1


def _read(flag: str, parse, *args):
    """parse(*args), with a ValueError naming flag, whose text it parses."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def cmd_tower(args) -> int:
    tower = FieldTower(args.p, _read("--degrees", _parse_int_list, args.degrees))
    base = tower.field(1)
    levels = _read("--levels", _parse_int_list, args.levels) if args.levels else None

    if args.mode == "convergence":
        if not args.pi or not args.superclass:
            raise ValueError("convergence mode needs --pi and --superclass")
        pi = _read("--pi", parse_partition, args.pi, args.n)
        colours = _read("--colours", parse_colours, args.colours or "", base)
        row = _read("--colours", partial(ColouredPartition, dual=True), pi, colours)
        label = TowerLabel.from_level1(tower, row)
        col = _read("--superclass", parse_coloured, args.superclass, args.n, base)
        report = convergence_report(label, col)
        report["label_text"] = format_coloured(label.level_label(label.m0))
        report["superclass_text"] = format_coloured(col)
        _emit_json(report, args.output)
        return 0 if report["stabilized"] or not report["limit"] else 1

    if args.mode == "fsc":
        report = fsc_diagnostic(args.n, tower, levels)
        _emit_json(report, args.output)
        ok = (
            report["stable_superclasses_match_center"]
            and report["stable_dual_orbits_match_superdiagonal"]
        )
        return 0 if ok else 1

    report = plancherel_profile(args.n, tower, levels)
    _emit_json(report, args.output)
    return 0 if report["strictly_increasing"] else 1


def _matrix_size(text: str) -> int:
    n = int(text)
    if n < 1:
        from argparse import ArgumentTypeError

        raise ArgumentTypeError(f"matrix size must be at least 1, got {n}")
    return n


# Every subcommand's flags: (option, add_argument keywords).
_N_P = (
    ("--n", {"type": _matrix_size, "required": True, "help": "matrix size"}),
    ("--p", {"type": int, "required": True, "help": "field characteristic"}),
)
_DEGREE = ("--degree", {"type": int, "default": 1, "help": "field degree m for GF(p^m)"})
_OUTPUT = ("--output", {"help": "write to a file instead of stdout"})
_COMMON = _N_P + (_DEGREE, _OUTPUT)

# name -> (handler, help, flags)
_COMMANDS = {
    "table": (cmd_table, "build and export the supercharacter table", _COMMON + (
        ("--format", {"choices": ["json", "csv"], "default": "json"}),
    )),
    "classify": (cmd_classify, "canonical label of a matrix or character", _COMMON + (
        ("--matrix", {"required": True, "help": 'entries, e.g. "a12=1,a13=1"'}),
        ("--dual", {"action": "store_true",
                    "help": "read the matrix as a character pairing matrix"}),
    )),
    "orbits": (cmd_orbits, "list superclasses or dual orbits with sizes", _COMMON + (
        ("--dual", {"action": "store_true", "help": "list dual orbits"}),
        ("--validate", {"choices": ["full", "off"], "default": "off", "help":
                        "with --dual, check dual BFS moves against the defining property"}),
    )),
    "verify": (cmd_verify, "run the axiom and identity suite", _COMMON + (
        ("--format", {"choices": ["text", "json"], "default": "text"}),
    )),
    "plancherel": (cmd_plancherel, "regular-character weights and identity", _COMMON),
    "tower": (cmd_tower, "AF-tower convergence and growth reports", _N_P + (
        ("--degrees", {"default": "1,2,6",
                       "help": "comma-separated divisor chain of field degrees"}),
        _OUTPUT,
        ("--mode", {"choices": ["convergence", "fsc", "plancherel"],
                    "default": "convergence"}),
        ("--pi", {"help": 'dual label partition, e.g. "1,4/2/3"'}),
        ("--colours", {"help": 'level-1 arc colours, e.g. "1,4=1"; extended up the tower'}),
        ("--superclass", {"help": 'superclass label with level-1 colours, '
                          'e.g. "1/2,3/4 | 2,3=1"'}),
        ("--levels", {"help": "comma-separated levels for fsc/plancherel"}),
    )),
}


@lru_cache(maxsize=1)
def build_parser():
    """The full argparse parser, built from _COMMANDS on first use: only
    argv that the walk in parse_args declines, and tests, need it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="superchar",
        description="Exact supercharacter tables of unitriangular groups, "
        "two ways, with every identity checked in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for option, keywords in flags:
            p.add_argument(option, **keywords)
        p.set_defaults(handler=handler, command=name)
    return parser


def _walk(argv):
    """The namespace argparse would give argv, when argv is a subcommand
    name followed by exact option strings of its flags, each valued flag
    with a value that does not start with "-" and that its type and
    choices accept, and every required flag given; else None.

    What the walk declines (abbreviations, --flag=value, values starting
    with "-", -h, --, stray positionals, bad values, missing flags) goes
    to argparse, which gives the usage, help or error for it.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    handler, _, flags = command
    spec, required = {}, set()
    values = {"command": argv[0], "handler": handler}
    for option, keywords in flags:
        dest = option[2:].replace("-", "_")
        store_true = keywords.get("action") == "store_true"
        spec[option] = dest, store_true, keywords
        values[dest] = False if store_true else keywords.get("default")
        if keywords.get("required"):
            required.add(option)
    k = 1
    while k < len(argv):
        if argv[k] not in spec:
            return None
        dest, store_true, keywords = spec[argv[k]]
        required.discard(argv[k])
        if store_true:
            values[dest] = True
            k += 1
            continue
        if k + 1 == len(argv) or argv[k + 1].startswith("-"):
            return None
        text = argv[k + 1]
        try:
            value = keywords["type"](text) if "type" in keywords else text
        except Exception:  # any failure of a type is argparse's to report
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        values[dest] = value
        k += 2
    return None if required else SimpleNamespace(**values)


def parse_args(argv):
    """argv parsed by the walk over the flag table, or by the full argparse
    parser when the walk declines: the same attributes either way, and
    argparse's usage, help and exit 2 on anything the walk does not
    accept."""
    args = _walk(argv)
    return args if args is not None else build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.handler(args)
    except AssertionError as exc:
        # internal consistency failures, route disagreement included
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
