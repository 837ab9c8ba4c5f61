"""The benchmark's workloads: CLI argv lists, set-up lists and output checks.

Every operation is one call of ``superchar.cli.main(argv)``.  Fixed-config
operations are checked against the stdout sha256 and exit code pinned in
``expected.json``.  ``classify_stream`` operations are generated from the
seed and checked against labels and orbit sizes computed here, with code
that shares nothing with the program under test.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")
DEFAULT_SEED = 1


@dataclass
class Op:
    argv: list
    # classify operations carry their expected label and closed orbit size;
    # fixed-config operations are checked against expected.json instead
    label: dict | None = None
    size: int | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Part:
    """One group of operations; each workload runs two parts in every pass."""

    name: str
    fields: tuple  # (p, m) of every field the part uses
    labels: tuple  # (n, p, m, dual) label enumerations paid at set-up
    op_limit_s: float  # an operation running longer than this fails
    ops: object  # seed -> list of Op
    stream: bool = False  # a seeded stream of queries, checked by label


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple
    setup_probes: int  # extra cold set-ups measured before each pass

    def setup(self) -> dict:
        fields, labels = [], []
        for part in self.parts:
            fields += [f for f in part.fields if f not in fields]
            labels += [x for x in part.labels if x not in labels]
        return {"fields": fields, "labels": labels}

    def ops(self, seed: int) -> list:
        """(part, op) for every operation of one pass, in order."""
        return [(part, op) for part in self.parts for op in part.ops(seed)]


# -- set partitions and closed orbit sizes, independent of the program --------


def set_partitions(n: int) -> list:
    """Blocks of every partition of [n], restricted-growth-string order."""
    out = []

    def grow(k, rgs, top):
        if k > n:
            blocks = [[] for _ in range(top + 1)]
            for x, b in enumerate(rgs, start=1):
                blocks[b].append(x)
            out.append(blocks)
            return
        for b in range(top + 2):
            grow(k + 1, rgs + [b], max(top, b))

    grow(2, [0], 0)
    return out


def arcs_of(blocks) -> list:
    return sorted((b[k], b[k + 1]) for b in blocks for k in range(len(b) - 1))


def shadow_count(n: int, arcs) -> int:
    """|S(pi)|: positions right of an arc in its row or above it in its column."""
    shadow = set()
    for i, j in arcs:
        shadow.update((i, l) for l in range(j + 1, n + 1))
        shadow.update((k, j) for k in range(1, i))
    return len(shadow)


def r_count(arcs) -> int:
    """r(pi): positions (i, k) and (k, j) strictly inside an arc (i, j)."""
    covered = set()
    for i, j in arcs:
        for k in range(i + 1, j):
            covered.add((i, k))
            covered.add((k, j))
    return len(covered)


def blocks_text(blocks) -> str:
    return "/".join(",".join(str(x) for x in b) for b in blocks)


# -- small finite fields, elements as coefficient tuples (constant term first) --


class SmallField:
    """GF(p^m) for m <= 2, reduced by the smallest monic irreducible modulus."""

    def __init__(self, p: int, m: int):
        self.p, self.m, self.q = p, m, p**m
        if m == 2:
            # x^2 + b x + c is irreducible iff it has no root in GF(p)
            self.modulus = min(
                (c, b)
                for c in range(p)
                for b in range(p)
                if all((x * x + b * x + c) % p for x in range(p))
            )
        elif m != 1:
            raise ValueError("only degrees 1 and 2 are needed here")
        self.nonzero = [self.element(k) for k in range(1, self.q)]

    def element(self, index: int) -> tuple:
        return tuple((index // self.p**k) % self.p for k in range(self.m))

    def add(self, x, y):
        return tuple((a + b) % self.p for a, b in zip(x, y))

    def neg(self, x):
        return tuple((-a) % self.p for a in x)

    def mul(self, x, y):
        p = self.p
        if self.m == 1:
            return ((x[0] * y[0]) % p,)
        c0 = x[0] * y[0]
        c1 = x[0] * y[1] + x[1] * y[0]
        c2 = x[1] * y[1]  # x^2 = -(b x + c)
        c, b = self.modulus
        return ((c0 - c2 * c) % p, (c1 - c2 * b) % p)

    def text(self, x) -> str:
        return str(x[0]) if self.m == 1 else "[" + ",".join(map(str, x)) + "]"


def _add_entry(mat: dict, pos, value, field: SmallField) -> None:
    s = field.add(mat.get(pos, (0,) * field.m), value)
    if any(s):
        mat[pos] = s
    else:
        mat.pop(pos, None)


def _superclass_move(mat, n, field, rng):
    """One two-sided orbit move: left by 1+a*e_ij adds a*row j to row i;
    right by 1+a*e_ij adds a*column i to column j."""
    i = rng.randrange(1, n)
    j = rng.randrange(i + 1, n + 1)
    alpha = rng.choice(field.nonzero)
    if rng.random() < 0.5:
        terms = [((i, s), v) for (r, s), v in mat.items() if r == j]
    else:
        terms = [((r, j), v) for (r, s), v in mat.items() if s == i]
    for pos, v in terms:
        _add_entry(mat, pos, field.mul(alpha, v), field)


def _dual_move(mat, n, field, rng):
    """One move of the contragredient action on pairing matrices: left by
    1+a*e_ij subtracts a*row i from row j right of j; right by 1+a*e_ij adds
    a*column j to column i above i."""
    i = rng.randrange(1, n)
    j = rng.randrange(i + 1, n + 1)
    alpha = rng.choice(field.nonzero)
    if rng.random() < 0.5:
        terms = [((j, s), field.neg(field.mul(alpha, v)))
                 for (r, s), v in mat.items() if r == i and s > j]
    else:
        terms = [((r, i), field.mul(alpha, v))
                 for (r, s), v in mat.items() if s == j and r < i]
    for pos, v in terms:
        _add_entry(mat, pos, v, field)


def _matrix_text(mat: dict, field: SmallField) -> str:
    return ",".join(f"a{i}{j}={field.text(mat[(i, j)])}" for (i, j) in sorted(mat))


# -- the workloads ---------------------------------------------------------------


def _fixed(*argvs) -> list:
    return [Op(list(argv)) for argv in argvs]


def verify_ops(seed: int) -> list:
    return _fixed(
        ["verify", "--n", "4", "--p", "3"],
        ["verify", "--n", "3", "--p", "7"],
    )


def build_ops(seed: int) -> list:
    return _fixed(["plancherel", "--n", "5", "--p", "3"])


def tower_ops(seed: int) -> list:
    chain = ["tower", "--p", "2", "--degrees", "1,2,4,8"]
    ops = []
    partitions = set_partitions(4)
    for pi in partitions:
        arcs = arcs_of(pi)
        if not arcs:
            continue
        colours = ";".join(f"{i},{j}=1" for i, j in arcs)
        for col in partitions:
            col_arcs = arcs_of(col)
            text = blocks_text(col)
            if col_arcs:
                text += " | " + ";".join(f"{i},{j}=1" for i, j in col_arcs)
            ops.append(Op(chain + ["--n", "4", "--mode", "convergence",
                                   "--pi", blocks_text(pi), "--colours", colours,
                                   "--superclass", text]))
    ops += _fixed(
        chain + ["--mode", "fsc", "--n", "4"],
        chain + ["--mode", "plancherel", "--n", "4"],
        ["tower", "--p", "2", "--degrees", "1,2,6", "--mode", "fsc", "--n", "3"],
    )
    return ops


# (n, p, m, stride): every stride-th partition of [n] labels one orbit
CLASSIFY_CONFIGS = ((6, 2, 1, 4), (5, 3, 1, 1), (4, 2, 2, 1))


def classify_ops(seed: int) -> list:
    """Random matrices from a fixed mix of orbits.

    The seed draws each label's colours and a random walk of orbit moves
    away from its verge matrix; the mix of partitions is fixed, so the work
    of a pass (orbit sizes) is the same on every seed while every matrix
    string differs.  Superclass queries walk with two-sided moves, dual
    queries with contragredient moves, so each expected label is known.
    """
    rng = random.Random(seed)
    ops = []
    for n, p, m, stride in CLASSIFY_CONFIGS:
        field = SmallField(p, m)
        base = ["classify", "--n", str(n), "--p", str(p), "--degree", str(m)]
        walk = 3 * n * (n - 1) // 2
        for blocks in set_partitions(n)[::stride]:
            arcs = arcs_of(blocks)
            for dual in (False, True):
                colours = {arc: rng.choice(field.nonzero) for arc in arcs}
                mat = dict(colours)
                move = _dual_move if dual else _superclass_move
                for _ in range(walk):
                    move(mat, n, field, rng)
                label = {
                    "blocks": blocks,
                    "colours": {f"{i},{j}": list(v) for (i, j), v in colours.items()},
                }
                if dual:
                    label["dual"] = True
                size = field.q ** (r_count(arcs) if dual else shadow_count(n, arcs))
                argv = base + ["--matrix", _matrix_text(mat, field)]
                ops.append(Op(argv + ["--dual"] if dual else argv, label, size))
    return ops


VERIFY = Part("verify_tables", ((3, 1), (7, 1)),
              ((4, 3, 1, False), (4, 3, 1, True), (3, 7, 1, False), (3, 7, 1, True)),
              op_limit_s=60, ops=verify_ops)
BUILD = Part("build_tables", ((3, 1),), ((5, 3, 1, False), (5, 3, 1, True)),
             op_limit_s=60, ops=build_ops)
CLASSIFY = Part("classify_stream", ((2, 1), (3, 1), (2, 2)), (),
                op_limit_s=15, ops=classify_ops, stream=True)
TOWER = Part("tower_chain", ((2, 1), (2, 2), (2, 4), (2, 8), (2, 6)),
             ((4, 2, 1, False), (4, 2, 1, True), (3, 2, 1, False),
              (3, 2, 1, True), (4, 2, 2, True)),
             op_limit_s=30, ops=tower_ops)

# Two workloads of two parts each: on a shared 2-vCPU host a run needs
# about a minute of passes before its median stops following the host's
# load swings, and a 3420 s budget for 4 + 22 runs per workload allows
# that for two workloads, not four (DESIGN.md has the measurements).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tables", (VERIFY, BUILD), setup_probes=5),
        Workload("queries", (CLASSIFY, TOWER), setup_probes=1),
    )
}


# -- output checks ---------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def check(op: Op, code, out: str, expected: dict) -> str | None:
    """None when the output is right, else what is wrong with it."""
    if op.label is None:
        pinned = expected["ops"].get(op.key)
        if pinned is None:
            return "no pinned output for this operation"
        if code != pinned["exit"]:
            return f"exit {code}, expected {pinned['exit']}"
        if sha256(out) != pinned["sha256"]:
            return "stdout differs from the pinned sha256"
        return None
    if code != 0:
        return f"exit {code}, expected 0"
    try:
        got = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    if got.get("label") != op.label:
        return f"label {got.get('label')} != {op.label}"
    if got.get("orbit_size") != op.size:
        return f"orbit size {got.get('orbit_size')} != closed size {op.size}"
    return None
