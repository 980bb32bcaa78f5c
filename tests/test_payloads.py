"""Golden CLI payloads: every corpus ``expect`` command at the defaults, every
trial command again at ``--trials 3 --seed 7``, and ``check`` on every
shipped file.  Each result and exit code must equal ``payloads.json``.

Regenerate the file only on purpose, when a change of output is intended:

    PYTHONPATH=src python tests/test_payloads.py
"""

import functools
import json
from pathlib import Path

import pytest

from segrenum import SegrenumError
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


if __name__ == "__main__":
    out = {_key(*case): _payload(*case) for case in _cases()}
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
