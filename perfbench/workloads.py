"""Seeded workloads: lists of real ``nclandau`` command lines.

A workload is a fixed list of operation slots. The problem size of every
slot is fixed, because the dense routes cost O(d^3) and a size drawn from
the seed would make two seeds incomparable. The seed draws what does not
move the cost: the kept level where the route's work is independent of it,
the unit constants, the output format, the operator that is dumped, the
small sizes of the start-up-bound ops, and the order of the list. The same
seed gives the same list.

Every workload runs all six subcommands, so every end-to-end metric and
every module of the package is measured on each one; the subcommands a
workload is not about run at the CLI's default scale ("companion" ops).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["Op", "WORKLOADS", "generate"]

# Exit statuses of the CLI contract.
OK, REPORT_FAILED, USAGE = 0, 1, 2


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the exit status the CLI contract requires."""

    argv: tuple[str, ...]
    expect: int = OK

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _units(rng: random.Random) -> list[str]:
    """Unit-constant flags: natural units a third of the time, else a few in [0.5, 2]."""
    if rng.random() < 1 / 3:
        return []
    flags = []
    for name in ("e", "B", "c", "hbar", "m"):
        if rng.random() < 0.5:
            flags += [f"--{name}", f"{2 ** rng.uniform(-1, 1):.3g}"]
    return flags


def _fmt(rng: random.Random) -> list[str]:
    """An output flag, or none for the table default."""
    choice = rng.choice(("json", "csv", "table", None))
    return [] if choice is None else ["--output", choice]


def _op(rng: random.Random, *argv, fmt: bool = True) -> Op:
    """A valid invocation with seeded units and, unless ``fmt`` is false, format."""
    args = [str(a) for a in argv] + _units(rng)
    if fmt:
        args += _fmt(rng)
    return Op(tuple(args))


def _companions(rng: random.Random) -> list[Op]:
    """One default-scale op per subcommand."""
    return [
        _op(rng, "commutator", "--keep", rng.randint(0, 4)),
        _op(rng, "sweep", "--N", 3, "--J", 6),
        _op(rng, "spectrum"),
        _op(rng, "landau-gauge"),
        _op(rng, "crosscheck"),
        _op(rng, "dump-matrix", "--op", rng.choice(("x", "y", "H", "L")), fmt=False),
    ]


def _dense_ladder(rng: random.Random) -> list[Op]:
    def commutator(n: int) -> Op:
        return _op(rng, "commutator", "--N", n, "--J", n, "--keep", rng.randint(0, n))

    # Sizes keep each op near a second, so every metric gets at least three
    # samples per pass, and a run that fits only one pass still has a median;
    # the one d=1681 commutator drives run_s and memory. One N=25 balances
    # it, so the commutator median falls among the N=30s.
    ops = [commutator(25), commutator(30), commutator(30), commutator(30), commutator(40)]
    for _ in range(3):
        ops.append(_op(rng, "sweep", "--N", 15, "--J", 15))
        ops.append(_op(rng, "spectrum", "--N", 25, "--J", 25))
        ops.append(_op(rng, "dump-matrix", "--op", rng.choice(("x", "y")), "--N", 16, "--J", 16, fmt=False))
    for _ in range(3):
        ops += [op for op in _companions(rng) if op.subcommand in ("landau-gauge", "crosscheck")]
    return ops


def _momentum_grid(rng: random.Random) -> list[Op]:
    # (keep, grid sizes): the largest composite dimension (keep+1)*M is 1024-1536.
    # Three of five slots are alike, so each median falls inside one group.
    studies = [(0, "128,256,512,1024"), (1, "128,256,512"), (1, "128,256,512"),
               (1, "128,256,512"), (2, "128,256,512")]
    crosschecks = [(0, 1024), (1, 512), (1, 512), (1, 512), (2, 512)]
    ops = [_op(rng, "landau-gauge", "--keep", keep, "--grid-M", sizes) for keep, sizes in studies]
    ops += [_op(rng, "crosscheck", "--keep", keep, "--grid-M", m) for keep, m in crosschecks]
    # Four of each companion per pass, so a run that fits one pass still has
    # a median. Start-up-bound commutators vary by tens of percent in wall
    # time from one child to the next; six per pass keep commutator_wall_s steady.
    for _ in range(4):
        ops += [op for op in _companions(rng) if op.subcommand not in ("landau-gauge", "crosscheck")]
    ops += [_op(rng, "commutator", "--keep", rng.randint(0, 4)) for _ in range(2)]
    return ops


# Inputs the CLI must reject with exit 2 and a usage message.
USAGE_ERRORS = (
    ("commutator", "--N", "3", "--keep", "5"),
    ("commutator", "--J", "0"),
    ("sweep", "--N", "-1"),
    ("spectrum", "--J", "-2"),
    ("landau-gauge", "--grid-M", "3"),
    ("landau-gauge", "--k-range", "0"),
    ("crosscheck", "--grid-M", "64,128"),
    ("dump-matrix", "--op", "projector"),
    ("dump-matrix", "--op", "x", "--output", "csv"),
    ("commutator", "--output", "xml"),
    ("commutator", "--e", "-1"),
)

# Inputs the contract says are usage errors but that end in a traceback
# with exit 1 at the time the benchmark was written. They stay in the
# workload and count as failed operations.
KNOWN_CONTRACT_BREAKS = (
    ("commutator", "--B", "1e-310"),
    ("commutator", "--N", "200", "--J", "200"),
)

# Reports that are emitted but fail their own check: the grid is too coarse.
FAILING_REPORTS = (
    ("crosscheck", "--keep", "0", "--grid-M", "16"),
    ("landau-gauge", "--keep", "0", "--grid-M", "8,16"),
)


def _small_cli(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(7):
        n = rng.randint(1, 6)
        ops.append(_op(rng, "commutator", "--N", n, "--J", rng.randint(2, 10), "--keep", rng.randint(0, n)))
    for _ in range(5):
        ops.append(_op(rng, "sweep", "--N", rng.randint(1, 5), "--J", rng.randint(2, 8)))
    for _ in range(5):
        ops.append(_op(rng, "spectrum", "--N", rng.randint(0, 6), "--J", rng.randint(0, 8)))
    # Grid-route slots are fixed, since cost and memory grow with (keep+1)*M;
    # all stay near the default scale so each subcommand's median is one cost.
    for _ in range(4):
        ops.append(_op(rng, "landau-gauge"))
    for keep, m in ((0, 64), (0, 128), (1, 128), (2, 128), (0, 256)):
        ops.append(_op(rng, "crosscheck", "--keep", keep, "--grid-M", m))
    for _ in range(5):
        name = rng.choice(("a", "b", "alpha", "x", "y", "px", "py", "H", "L", "xy-commutator", "projector"))
        n = rng.randint(1, 4)
        extra = ["--keep", str(rng.randint(0, n))] if name == "projector" else []
        if name == "H":
            extra = ["--form", rng.choice(("ladder", "quadratic"))]
        ops.append(_op(rng, "dump-matrix", "--op", name, "--N", n, "--J", rng.randint(1, 6), *extra, fmt=False))
    # Identical invocations, so byte-identity is checked within one pass.
    for subcommand in ("commutator", "sweep", "spectrum", "dump-matrix"):
        ops.append(rng.choice([op for op in ops if op.subcommand == subcommand]))
    ops += [Op(argv + tuple(_fmt(rng)), REPORT_FAILED) for argv in FAILING_REPORTS]
    ops += [Op(argv, USAGE) for argv in rng.sample(USAGE_ERRORS, 5)]
    ops += [Op(argv, USAGE) for argv in KNOWN_CONTRACT_BREAKS]
    return ops


_GENERATORS = {
    "dense-ladder": _dense_ladder,
    "momentum-grid": _momentum_grid,
    "small-cli": _small_cli,
}
WORKLOADS = tuple(_GENERATORS)  # why each was chosen: BENCHMARK.json and README.md


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of ``workload`` for ``seed``, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops
