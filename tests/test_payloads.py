"""Golden CLI payloads: every corpus ``expect`` command at the defaults, every
trial command again at ``--trials 3 --seed 7``, and ``check`` on every
shipped file.  Each result and exit code must equal ``payloads.json``.

Regenerate the file only on purpose, when a change of output is intended:

    PYTHONPATH=src python tests/test_payloads.py
"""

import functools
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from segrenum import Ideal, Ring, SegrenumError
from segrenum.cli import corpus_files, corpus_path, run
from segrenum.problem import load_problem

GOLDEN = Path(__file__).with_name("payloads.json")
TRIAL_COMMANDS = {"segre", "polar", "vogel", "fixed", "circ", "intersect", "tworzewski", "point-part"}


def _cases():
    """(file name, argv without the file) for each payload, in a fixed order."""
    expects = [(name, exp.argv) for name in corpus_files() for exp in load_problem(corpus_path(name)).expects]
    cases = [(name, list(argv)) for name, argv in expects]
    cases += [(name, [*argv, "--trials", "3", "--seed", "7"]) for name, argv in expects if argv[0] in TRIAL_COMMANDS]
    return cases + [(name, ["check"]) for name in corpus_files()]


@functools.cache
def _golden():
    return json.loads(GOLDEN.read_text())


def _key(name, argv):
    return " ".join([name, *argv])


def _payload(name, argv):
    try:
        doc, _, code = run([argv[0], corpus_path(name), *argv[1:]])
    except SegrenumError as exc:
        return {"result": None, "exit": exc.exit_code}
    return {"result": json.loads(json.dumps(doc["result"])), "exit": code}


def test_payload_set_is_complete():
    keys = [_key(*case) for case in _cases()]
    assert len(keys) == 78
    assert sorted(keys) == sorted(_golden())


@pytest.mark.parametrize("name, argv", _cases(), ids=[_key(*case) for case in _cases()])
def test_payload_matches_golden(name, argv):
    assert _payload(name, argv) == _golden()[_key(name, argv)]


# -- the dense quadric systems -------------------------------------------------------
# Seeds 3 and 5 of the benchmark's dense workload: 12 systems of 5 random dense
# quadrics in 5 variables each, built by a copy of its generator.  Each system's
# payload holds its Hilbert data and the sha256 of its reduced grevlex basis;
# the digest is that of the JSON list of the 12 payloads.
DENSE_DIGESTS = {
    3: "4f6fab76d8486808867b71aa3daee474ffc0cd8f610d4e1ca96db548f7917470",
    5: "7af57ca1efe47c58bca06d4d2999f9933ca65186cf00c5635fa659886275fc7a",
}


def _dense_systems(seed, n=5, systems=12, coeff=9):
    rng = random.Random(seed)
    monomials = [e for e in itertools.product(range(3), repeat=n) if sum(e) <= 2]

    def text():
        terms = []
        for e in monomials:
            c = rng.randint(-coeff, coeff)
            if c:
                terms.append("*".join([f"({c})"] + [f"x{i}^{k}" for i, k in enumerate(e) if k]))
        return " + ".join(terms) or "0"

    return [[text() for _ in range(n)] for _ in range(systems)]


@pytest.mark.parametrize("seed", sorted(DENSE_DIGESTS))
def test_dense_payloads_match_golden(seed):
    ring = Ring([f"x{i}" for i in range(5)])
    payloads = []
    for gens in _dense_systems(seed):
        ideal = Ideal(ring, gens)
        basis, hd = ideal.groebner(), ideal.hilbert_data()
        assert (hd.dimension, hd.degree) == (0, 2**5)  # Bezout
        text = "\n".join(str(g) for g in basis)
        payloads.append({
            "dim": hd.dimension,
            "degree": hd.degree,
            "numerator": list(hd.numerator),
            "basis_len": len(basis),
            "basis_sha256": hashlib.sha256(text.encode()).hexdigest(),
        })  # fmt: skip
    doc = json.dumps(payloads, sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == DENSE_DIGESTS[seed]


if __name__ == "__main__":
    out = {_key(*case): _payload(*case) for case in _cases()}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
