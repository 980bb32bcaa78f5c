"""Line-oriented problem files.

A problem file declares one ambient ring and named objects over it:

    # comment
    ring x1 x2 x3
    space: x2*x1^2 - x3^2
    ideal A: x2, x3
    map G: t1 t2 t3 | t1, t2, t3*t1
    ideal Z: map(G)
    cycle W: 1*(A) + 2*(Z)
    point O: 0, 0, 0
    expect segre --ideal A --point O == {"values": [0, 1, 2], "stable": true}

``space:`` gives the ambient variety for segre/polar/vogel/fixed commands
(default: the whole space).  ``ideal NAME: map(G)`` names the implicitization
of a declared map.  ``expect`` lines pin the result of a CLI command run on
this file and are checked by ``segrenum check``.
"""

from __future__ import annotations

import json
import re
import shlex
from dataclasses import dataclass, field

from .cycles import CycleRep, implicitize
from .errors import InputError
from .groebner import Ideal
from .ring import AffinePoint, Ring

_CYCLE_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*\s*)?\(\s*(?P<name>[A-Za-z_]\w*)\s*\)\s*"
)
_MAP_RE = re.compile(r"\s*map\((?P<name>[A-Za-z_]\w*)\)\s*\Z")


@dataclass(frozen=True)
class MapDef:
    param_ring: Ring
    components: tuple


@dataclass(frozen=True)
class Expectation:
    line_no: int
    argv: tuple[str, ...]
    expected: dict


@dataclass
class Problem:
    path: str
    ring: Ring
    space: Ideal
    ideals: dict[str, Ideal] = field(default_factory=dict)
    cycles: dict[str, CycleRep] = field(default_factory=dict)
    points: dict[str, AffinePoint] = field(default_factory=dict)
    maps: dict[str, MapDef] = field(default_factory=dict)
    expects: list[Expectation] = field(default_factory=list)
    # Vogel runs shared by the commands run on this problem (vogel.sharing)
    runs: dict = field(default_factory=dict, repr=False, compare=False)

    def ideal(self, name: str) -> Ideal:
        return _named(self.ideals, "ideal", name)

    def cycle(self, name: str) -> CycleRep:
        if name in self.cycles:
            return self.cycles[name]
        # a named ideal may stand for the cycle with coefficient 1
        if name in self.ideals:
            return CycleRep.from_ideal(self.ideals[name])
        raise InputError(f"no cycle or ideal named {name!r}")

    def point(self, name: str) -> AffinePoint:
        return _named(self.points, "point", name)

    def map_def(self, name: str) -> MapDef:
        return _named(self.maps, "map", name)


def _named(table: dict, kind: str, name: str):
    try:
        return table[name]
    except KeyError:
        raise InputError(f"no {kind} named {name!r}") from None


def _parse_cycle(ring, text: str, ideals) -> CycleRep:
    pos = 0
    parts = []
    while pos < len(text):
        m = _CYCLE_TERM.match(text, pos)
        if not m:
            raise InputError(f"bad cycle term at {text[pos:]!r}")
        if pos == 0 and m.group("sign") == "+":
            raise InputError("cycle cannot start with '+'")
        if pos > 0 and m.group("sign") is None:
            raise InputError(f"missing '+' or '-' before {m.group('name')!r}")
        coeff = int(m.group("coeff") or 1)
        if m.group("sign") == "-":
            coeff = -coeff
        name = m.group("name")
        if name not in ideals:
            raise InputError(f"cycle references unknown ideal {name!r}")
        parts.append((ideals[name], coeff))
        pos = m.end()
    if not parts:
        raise InputError("empty cycle")
    return CycleRep.build(ring, parts)


def _handle_declaration(problem: Problem, key: str, name: str | None, body: str):
    ring = problem.ring
    if key in ("ideal", "cycle", "point", "map"):
        if not name:
            raise InputError(f"{key} needs a name")
        if any(name in t for t in (problem.ideals, problem.cycles, problem.points, problem.maps)):
            raise InputError(f"duplicate name {name!r}")
    if key == "space":
        if not problem.space.is_zero():
            raise InputError("duplicate space line")
        gens = [ring.parse(t) for t in body.split(",") if t.strip()]
        problem.space = Ideal(ring, gens)
    elif key == "ideal":
        mm = _MAP_RE.match(body)
        if mm:
            mdef = problem.map_def(mm.group("name"))
            problem.ideals[name] = implicitize(mdef.components, mdef.param_ring, ring)
        else:
            gens = [ring.parse(t) for t in body.split(",") if t.strip()]
            problem.ideals[name] = Ideal(ring, gens)
    elif key == "cycle":
        problem.cycles[name] = _parse_cycle(ring, body.strip(), problem.ideals)
    elif key == "point":
        problem.points[name] = ring.parse_point(body)
    elif key == "map":
        if "|" not in body:
            raise InputError("map syntax: map NAME: params | components")
        params, comps = body.split("|", 1)
        param_ring = Ring(params.split())
        components = tuple(param_ring.parse(t) for t in comps.split(",") if t.strip())
        if len(components) != ring.arity:
            raise InputError(
                f"map has {len(components)} components for {ring.arity} variables"
            )
        problem.maps[name] = MapDef(param_ring, components)
    else:
        raise InputError(f"unknown declaration {key!r}")


def load_problem(path: str) -> Problem:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputError(f"cannot read problem file {path!r}: {exc.strerror}") from None
    problem = None
    for no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            first = line.split(None, 1)[0]
            if first == "ring":
                if problem is not None:
                    raise InputError("duplicate ring line")
                ring = Ring(line.split()[1:])
                problem = Problem(path, ring, Ideal(ring, ()))
                continue
            if problem is None:
                raise InputError("the first declaration must be 'ring'")
            if first == "expect":
                rest = line.split(None, 1)[1] if " " in line else ""
                if "==" not in rest:
                    raise InputError("expect syntax: expect CMD ARGS == JSON")
                left, right = rest.split("==", 1)
                argv = tuple(shlex.split(left))
                if not argv:
                    raise InputError("expect needs a command")
                try:
                    expected = json.loads(right)
                except json.JSONDecodeError as exc:
                    raise InputError(f"bad expect JSON: {exc}") from None
                if not isinstance(expected, dict):
                    raise InputError("expect JSON must be an object")
                problem.expects.append(Expectation(no, argv, expected))
                continue
            if ":" not in line:
                raise InputError(f"missing ':' in declaration {first!r}")
            head, body = line.split(":", 1)
            parts = head.split()
            key = parts[0]
            name = parts[1] if len(parts) > 1 else None
            if len(parts) > 2:
                raise InputError(f"bad declaration head {head!r}")
            _handle_declaration(problem, key, name, body)
        except InputError as exc:
            msg = str(exc)
            if not msg.startswith(path):
                raise InputError(f"{path}:{no}: {msg}") from None
            raise
    if problem is None:
        raise InputError(f"{path}: no ring declaration")
    return problem
