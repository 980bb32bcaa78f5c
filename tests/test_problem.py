"""Problem-file parsing: declarations, cycles, maps, expects, error reporting."""

import pytest

from segrenum import (
    AffinePoint,
    CycleRep,
    Ideal,
    InputError,
    Ring,
    load_problem,
)

FULL = """\
# a file exercising every declaration kind
ring x1 x2 x3

space: x2*x1^2 - x3^2
ideal A: x2, x3
map C: t | t, t^2, t^3
ideal T: map(C)
cycle W: 2*(A) + (T) - 3*(A)
point P: 1, 0, -2

expect dim --ideal A == {"dim": 1}
expect segre --ideal A == {"values": [0, 1, 2], "stable": true}
"""


def _write(tmp_path, text, name="case.prob"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_full_file_round_trip(tmp_path):
    prob = load_problem(_write(tmp_path, FULL))
    R = prob.ring
    assert R.names == ("x1", "x2", "x3")
    assert prob.space == Ideal(R, ["x2*x1^2 - x3^2"])
    assert prob.ideal("A") == Ideal(R, ["x2", "x3"])
    # map(C) is implicitized into the ambient ring
    assert prob.ideal("T") == Ideal(R, ["x2 - x1^2", "x3 - x1^3"])
    w = prob.cycle("W")
    assert w.parts == ((prob.ideal("A"), 2), (prob.ideal("T"), 1), (prob.ideal("A"), -3))
    assert prob.point("P") == AffinePoint(R, (1, 0, -2))
    assert prob.map_def("C").param_ring.names == ("t",)
    assert len(prob.expects) == 2
    exp = prob.expects[0]
    assert exp.argv == ("dim", "--ideal", "A")
    assert exp.expected == {"dim": 1}
    assert prob.expects[1].expected["values"] == [0, 1, 2]


def test_named_ideal_usable_as_cycle(tmp_path):
    prob = load_problem(_write(tmp_path, "ring x y\nideal A: x\n"))
    z = prob.cycle("A")
    assert isinstance(z, CycleRep)
    assert z.parts == ((Ideal(prob.ring, ["x"]), 1),)
    with pytest.raises(InputError):
        prob.cycle("nope")
    with pytest.raises(InputError):
        prob.ideal("nope")
    with pytest.raises(InputError):
        prob.point("nope")
    with pytest.raises(InputError):
        prob.map_def("nope")


def test_default_space_is_whole_ring(tmp_path):
    prob = load_problem(_write(tmp_path, "ring x y\n"))
    assert prob.space.is_zero()


def _error(tmp_path, text):
    with pytest.raises(InputError) as exc:
        load_problem(_write(tmp_path, text))
    return str(exc.value)


@pytest.mark.parametrize(
    "text, fragment, line",
    [
        ("ideal A: x\n", "ring", 1),
        ("ring x y\nring x y\n", "duplicate", 2),
        ("ring x y\nideal A: x\nideal A: y\n", "duplicate", 3),
        ("ring x y\nideal A: x\npoint A: 0, 0\n", "duplicate", 3),
        ("ring x y\nspace: x\nspace: y\n", "duplicate", 3),
        # a first space line that declares the zero ideal is still a space line
        ("ring x y\nspace: 0\nspace: x*y\n", "duplicate space line", 3),
        ("ring x y\nspace:\nspace: x*y\n", "duplicate space line", 3),
        ("ring x y\ncycle W: (A)\n", "unknown ideal", 2),
        ("ring x y\nideal A: x\ncycle W: 2(A)\n", "cycle", 3),
        ("ring x y\nideal A: x\ncycle W: (A) (A)\n", "missing", 3),
        ("ring x y\nideal Z: map(G)\n", "map", 2),
        ("ring x y\nmap G: t | t\n", "components", 2),
        ("ring x y\nideal A x\n", "missing ':'", 2),
        ("ring x y\nideal A B: x\n", "declaration head", 2),
        ("ring x y\nexpect dim --ideal A\n", "==", 2),
        ("ring x y\nexpect dim == [1, 2]\n", "object", 2),
        ("ring x y\nexpect dim == {bad json\n", "JSON", 2),
        ("ring x y\nwibble Q: x\n", "unknown", 2),
        ("ring x y\npoint P: 1\n", "2", 2),
    ],
)
def test_error_reports_path_and_line(tmp_path, text, fragment, line):
    msg = _error(tmp_path, text)
    assert f"case.prob:{line}:" in msg
    assert fragment.lower() in msg.lower()


def test_comments_and_blank_lines_ignored(tmp_path):
    text = "# header\n\nring x y\n  # indented comment\nideal A: x\n"
    prob = load_problem(_write(tmp_path, text))
    assert "A" in prob.ideals


def test_negative_and_rational_points(tmp_path):
    prob = load_problem(_write(tmp_path, "ring x y\npoint P: -1, 1/2\n"))
    p = prob.point("P")
    assert p.coords[0] == -1 and p.coords[1].denominator == 2


def test_map_with_multiple_params(tmp_path):
    text = "ring z1 z2 z3\nmap G: s t | s, t, s*t\nideal Z: map(G)\n"
    prob = load_problem(_write(tmp_path, text))
    assert prob.ideal("Z") == Ideal(prob.ring, ["z3 - z1*z2"])
