"""The benchmark's workloads: seeded inputs, task lists and oracles.

Each workload is built from its seed (that is its set-up) and hands out a
fresh task list per pass, so no pass reuses bases cached by an earlier one.
A task is ``run`` (timed) and ``finish`` (untimed), which turns the raw
result into a JSON-comparable payload and checks it against an oracle that
does not come from the program itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

# Package functions are looked up on their module at call time (cli.run,
# cli.load_problem, ...), so the tracer's wrappers see these calls too.
from segrenum import Ideal, Ring, cli, vogel


@dataclass
class Task:
    name: str
    run: Callable[[], Any]
    finish: Callable[[Any], tuple[Any, str | None]]  # -> (payload, error)


def _json(value):
    return json.loads(json.dumps(value))


class Threefold:
    """The image threefold: ``circ --ideal A --cycle Z --point O`` through the
    in-process CLI, one task per pass.  Oracle: by_codim (0, 1, 1, 2) and
    total 4, which do not depend on the seed."""

    # One Vogel trial takes about 20 s on the pure kernel, so two trials (the
    # acceptance setting) would not leave room for the traced repeat inside
    # the 180 s a run may take.  A non-generic draw fails the oracle and is
    # counted as a failure, never re-seeded.
    TRIALS = 1

    def __init__(self, seed: int):
        self.path = cli.corpus_path("image_threefold.prob")
        cli.load_problem(self.path)  # parses the file and implicitizes the map
        self.argv = [
            "circ", self.path, "--ideal", "A", "--cycle", "Z", "--point", "O",
            "--trials", str(self.TRIALS), "--seed", str(seed), "--format", "json",
        ]  # fmt: skip

    def tasks(self) -> list[Task]:
        return [Task("circ", lambda: cli.run(self.argv), self._finish)]

    @staticmethod
    def _finish(out):
        doc, _, code = out
        payload = _json(doc["result"])
        if code != 0:
            return payload, f"exit code {code}"
        if payload.get("by_codim") != [0, 1, 1, 2] or payload.get("total") != 4:
            return payload, "by_codim/total differ from (0, 1, 1, 2) / 4"
        return payload, None


# The threefold's circ and point-part lines are the threefold instance at the
# default 4 trials; they would take nearly the whole corpus pass.
CORPUS_SKIP = {("image_threefold.prob", "circ"), ("image_threefold.prob", "point-part")}


class Corpus:
    """The shipped corpus ``expect`` lines (less CORPUS_SKIP) through the
    ``check`` path at the workload seed.  Oracle: every key of the expect
    payload, compared here as well as by the check path."""

    def __init__(self, seed: int):
        self.defaults = [
            ("--seed", seed),
            ("--trials", vogel.DEFAULT_TRIALS),
            ("--coeff-bound", vogel.DEFAULT_BOUND),
        ]
        self.files = cli.corpus_files()
        self._problems = self._load()
        # The check path reports only mismatches; wrapping the command table
        # (for the life of the process) keeps each command's full payload.
        self._captured: list = []
        for name, fn in list(cli.COMMANDS.items()):
            cli.COMMANDS[name] = self._capturing(fn)

    def _capturing(self, fn):
        captured = self._captured

        def capture(problem, args):
            out = fn(problem, args)
            captured.append(out)
            return out

        return capture

    def _load(self):
        return [(name, cli.load_problem(cli.corpus_path(name))) for name in self.files]

    def tasks(self) -> list[Task]:
        problems = self._problems if self._problems is not None else self._load()
        self._problems = None
        out = []
        for name, problem in problems:
            for exp in problem.expects:
                if (name, exp.argv[0]) in CORPUS_SKIP:
                    continue
                out.append(
                    Task(
                        f"{name}:{exp.line_no}",
                        lambda p=problem, e=exp: self._check(p, e),
                        lambda raw, e=exp: self._finish(raw, e),
                    )
                )
        return out

    def _check(self, problem, exp):
        self._captured.clear()
        bad = cli._run_expectation(problem, exp, self.defaults)
        return bad, self._captured[-1] if self._captured else None

    @staticmethod
    def _finish(raw, exp):
        bad, got = raw
        payload = None if got is None else _json(got)
        if bad is not None:
            return payload, f"check path reports {bad}"
        wrong = [k for k, want in exp.expected.items() if (payload or {}).get(k) != want]
        if wrong:
            return payload, f"keys {wrong} differ from the expect line"
        return payload, None


class Dense:
    """Zero-dimensional systems of N random dense quadrics in N variables,
    integer coefficients in [-9, 9].  Each task builds the ideal from text,
    computes its reduced grevlex basis and Hilbert data.  Oracle: Bezout,
    dimension 0 and degree 2^N.  A non-generic draw is a failure."""

    # n = 6 takes about 20 s per system on the pure kernel; n = 5 keeps the
    # same shape (reduction-bound, long coefficients) at about 0.5 s, so one
    # run times several passes over a dozen systems.
    N = 5
    SYSTEMS = 12
    COEFF = 9

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ring = Ring([f"x{i}" for i in range(self.N)])
        monomials = [
            e
            for e in itertools.product(range(3), repeat=self.N)
            if sum(e) <= 2
        ]
        self.systems = [
            [self._text(rng, monomials) for _ in range(self.N)]
            for _ in range(self.SYSTEMS)
        ]

    def _text(self, rng, monomials) -> str:
        terms = []
        for e in monomials:
            c = rng.randint(-self.COEFF, self.COEFF)
            if c:
                terms.append("*".join([f"({c})"] + [f"x{i}^{k}" for i, k in enumerate(e) if k]))
        return " + ".join(terms) or "0"

    def tasks(self) -> list[Task]:
        return [
            Task(f"system{i}", lambda g=gens: self._solve(g), self._finish)
            for i, gens in enumerate(self.systems)
        ]

    def _solve(self, gens):
        ideal = Ideal(self.ring, gens)
        return ideal.groebner(), ideal.hilbert_data()

    def _finish(self, raw):
        basis, hd = raw
        text = "\n".join(str(g) for g in basis)
        payload = {
            "dim": hd.dimension,
            "degree": hd.degree,
            "numerator": list(hd.numerator),
            "basis_len": len(basis),
            "basis_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        if hd.dimension != 0 or hd.degree != 2**self.N:
            return payload, f"dim {hd.dimension}, degree {hd.degree}; Bezout gives 0, {2**self.N}"
        return payload, None


WORKLOADS = {"threefold": Threefold, "corpus": Corpus, "dense": Dense}

# Boundaries each workload must reach in a traced pass; zero calls there means
# a wrapper missed a binding, so the traced run fails.
MUST_REACH = {
    "threefold": (
        "cli.run", "problem.load", "cycles.circ_index", "cycles.implicitize",
        "vogel.run_trials", "vogel.random_vogel_sequence", "vogel.vogel_run",
        "localmult.local_dim_mult", "localmult.standard_basis",
        "groebner.gb", "groebner.saturate", "groebner.intersect",
        "kernel.reduce_full", "kernel.spoly",
    ),
    "corpus": (
        "cli.run", "problem.load", "ring.parse", "ring.substitute",
        "cycles.linear_reduce", "cycles.implicitize",
        "vogel.run_trials", "vogel.vogel_run", "localmult.local_dim_mult",
        "localmult.standard_basis", "groebner.gb", "groebner.saturate",
        "groebner.intersect", "groebner.hilbert", "kernel.reduce_full",
        "kernel.spoly", "kernel.mora_nf",
    ),
    "dense": ("ring.parse", "groebner.gb", "groebner.hilbert", "kernel.reduce_full", "kernel.spoly"),
}  # fmt: skip
