"""The benchmark's three workloads: seeded items, the library call, the reference check.

A workload is a fixed multiset of item shapes (a *round*).  The seed draws
the free inputs of each item (Boltzmann factors, random words, the verify
seed) and the order of the round, so every seed costs about the same while
the library only ever sees generated inputs.  ``run`` is the timed call;
``check`` runs outside the timer and returns an error string or None.  The
checks do not call the code under test to decide correctness.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")


def load_pga():
    """The library under test, with its CLI module (``pga/__init__`` does not import it)."""
    import pga
    import pga.cli

    return pga


class ChainIntegral:
    """potts.z_paragrassmann: the 2N-fold nilpotent integral of the closed chain."""

    name = "chain_integral"
    # (p, N, items per round); (p+1)**N runs from 27 to 1296 expansion terms.
    # The counts put p50 inside the run of (6,2), (4,3), (3,4) and (5,3), which
    # cost about the same, and p90 in the middle of the five (4,4), below the
    # two dearest items; never between blocks of different cost.
    shapes = (
        (1, 5, 1), (1, 7, 3), (1, 9, 2),
        (2, 3, 3), (2, 4, 3), (2, 5, 3), (2, 6, 2),
        (3, 3, 3), (3, 4, 3),
        (4, 3, 3), (4, 4, 5),
        (5, 2, 3), (5, 3, 2), (5, 4, 1),
        (6, 2, 3), (6, 3, 1),
    )
    ps = (1, 2, 3, 4, 5, 6)

    def __init__(self, pga):
        self.pga = pga

    def make_round(self, rng: random.Random) -> list:
        items = [(p, n, _boltzmann(rng)) for p, n, count in self.shapes for _ in range(count)]
        rng.shuffle(items)
        return items

    def run(self, item):
        p, n, x = item
        potts = self.pga.potts
        return potts.z_paragrassmann(potts.PottsInstance(p, n, x))

    def check(self, item, value):
        p, n, x = item
        want = (x + p) ** n + p * (x - 1) ** n
        if value != want:
            return f"Z({p},{n},{x}) = {value}, closed form gives {want}"
        return None


def _boltzmann(rng: random.Random) -> Fraction:
    """A positive rational x = a/b other than 1; x = 1 zeroes the weights t_m, m > 0."""
    while True:
        x = Fraction(rng.randint(1, 40), rng.randint(1, 9))
        if x != 1:
            return x


class RelationSuite:
    """build_multimode + check_relations + random words, symbolic vs matrix."""

    name = "relation_suite"
    # (p, modes, items per round); dimension (p+1)**(2*modes) from 4 to 729.
    # The counts put p50 and p90 inside a block of one shape, not between two.
    shapes = (
        (1, 1, 4), (2, 1, 4), (3, 1, 4), (1, 2, 4), (1, 3, 4),
        (2, 2, 4), (1, 4, 2), (3, 2, 1), (2, 3, 1),
    )
    words = 6
    ps = (1, 2, 3)

    def __init__(self, pga):
        self.pga = pga

    def make_round(self, rng: random.Random) -> list:
        items = []
        for p, modes, count in self.shapes:
            symbols = [(k, m) for m in range(1, modes + 1) for k in ("theta", "tbar")]
            for _ in range(count):
                words = tuple(
                    tuple(rng.choice(symbols) for _ in range(rng.randint(1, 2 * p)))
                    for _ in range(self.words)
                )
                items.append((p, modes, words))
        rng.shuffle(items)
        return items

    def run(self, item):
        p, modes, words = item
        mm = self.pga.multimode
        ctx = self.pga.qarith.make_context(p)
        rep = mm.build_multimode(ctx, modes)
        checks = mm.check_relations(rep)
        alg = mm.PGAlgebra(ctx, modes)
        pairs = [(mm.poly_matrix(rep, alg.normal_order(w)), mm.word_matrix(rep, w)) for w in words]
        return checks, pairs

    def check(self, item, result):
        p, modes, words = item
        checks, pairs = result
        want = 10 * modes**2 + 4 * modes
        if len(checks) != want:
            return f"({p},{modes}): {len(checks)} relation checks, expected {want}"
        failed = [c["name"] for c in checks if c["passed"] is not True]
        if failed:
            return f"({p},{modes}): relations failed: {failed[:3]}"
        for word, (symbolic, matrix) in zip(words, pairs):
            if _coords(symbolic) != _coords(matrix):
                return f"({p},{modes}): word {word} disagrees between normal_order and matrices"
        return None


def _coords(mat) -> tuple:
    """Matrix entries as exact rational coordinates, bypassing library equality."""
    return mat.dim, {k: tuple(v.coeffs) for k, v in mat.entries.items() if any(v.coeffs)}


class CliMix:
    """In-process ``pga.cli.main(argv)`` over all five subcommands."""

    name = "cli_mix"
    # one round runs every entry once; {seed} takes a seeded verify seed
    grid = (
        "verify --p 1 --modes 2 --seed {seed}",
        "verify --p 2 --modes 1 --seed {seed}",
        "verify --p 1 --modes 3 --seed {seed}",
        "verify --p 2 --modes 2 --seed {seed}",
        "verify --p 3 --modes 1 --seed {seed}",
        "verify --p 4 --modes 1 --seed {seed}",
        "verify --p 5 --modes 1 --seed {seed}",
        "potts --p 2 --sites 3 --x 2 --method all --exact",
        "potts --p 1 --sites 4 --x 5/2 --exact --format csv",
        "potts --p 3 --sites 4 --x 7/3 --method all --exact",
        "potts --p 4 --sites 6 --x 3/2 --method closed --exact",
        "potts --p 5 --sites 5 --x 3 --method all",
        "potts --p 2 --sites 6 --x 5/4 --method transfer --exact",
        "potts --p 1 --sites 8 --x 9/2 --method brute --exact",
        "repr --p 2 --dump theta,partial,g",
        "repr --p 10 --dump theta,partial,g,g_half,g_inv,g_half_inv",
        "repr --p 10",
        "repr --p 6 --dump theta,partial,g,g_half,g_inv,g_half_inv",
        "repr --p 4 --beta 1,2,3,4 --dump theta,partial",
        "heat --p 2 --h 0,1,1 --time 1 --steps 16 --convergence",
        "heat --p 4 --h 0,1,1,0.5,0.25 --time 1 --steps 16 --convergence",
        "heat --p 3 --h 1,0,2,1 --time 0.5 --steps 64 --kernel euler",
        "qgroup --p 2 --alpha 1/2 --beta 2 --sl",
        "qgroup --p 10 --alpha 1/2 --beta 2 --sl",
        "qgroup --p 10 --alpha 3/2 --beta 3 --gamma 5",
        "qgroup --p 7 --alpha 1 --beta 2/3 --gamma 3/4",
        "qgroup --p 5 --alpha=-1/2 --beta 5/3 --sl",
    )
    verify_seeds = 4
    ps = (1, 2, 3, 4, 5, 6, 7, 10)

    def __init__(self, pga, golden: dict | None = None):
        self.pga = pga
        self.golden = json.loads(GOLDEN_PATH.read_text()) if golden is None else golden

    @classmethod
    def all_argvs(cls) -> list[str]:
        return sorted({entry.format(seed=s) for entry in cls.grid for s in range(cls.verify_seeds)})

    def make_round(self, rng: random.Random) -> list:
        items = [entry.format(seed=rng.randrange(self.verify_seeds)) for entry in self.grid]
        rng.shuffle(items)
        return items

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.pga.cli.main(item.split())
        return code, out.getvalue()

    def check(self, item, result):
        code, stdout = result
        if code != 0:
            return f"pga {item}: exit {code}"
        if "--format csv" in item:
            if not stdout.startswith("p,N,x,method,value_re,value_im\n"):
                return f"pga {item}: unexpected CSV header"
        else:
            try:
                doc = json.loads(stdout, parse_constant=_reject_constant)
            except ValueError as exc:
                return f"pga {item}: stdout is not strict JSON ({exc})"
            failed = [c.get("name") for c in doc["checks"] if c.get("passed") is not True]
            if failed:
                return f"pga {item}: checks failed: {failed[:3]}"
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if digest != self.golden.get(item):
            return f"pga {item}: stdout sha256 {digest[:12]} differs from the golden"
        return None


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


WORKLOADS = {w.name: w for w in (ChainIntegral, RelationSuite, CliMix)}
