"""Spans and counts recorded around calls into segrenum's modules.

Layers are the package's modules.  The tracer wraps module functions and
``Ring``/``Polynomial``/``Ideal`` methods from outside, so the package source
is never edited.  A module function is replaced under every name a segrenum
module binds it to (``vogel``, ``cycles`` and ``cli`` each import
``local_dim_mult``, for example), so calls made inside the package pass
through the wrapper as well.

Each span is ``[name, start, end, parent index (-1 at top level), task id]``.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

from segrenum import kernel, vogel
from segrenum.groebner import Ideal
from segrenum.orders import GREVLEX
from segrenum.ring import Polynomial, Ring

CLASSES = {"Ring": Ring, "Polynomial": Polynomial, "Ideal": Ideal}


def _poly_key(p):
    terms = getattr(p, "terms", None)
    return frozenset(terms.items()) if terms is not None else str(p)


def _gens_key(ideal):
    return (ideal.ring.names, tuple(_poly_key(g) for g in ideal.gens))


class Tracer:
    """Records spans and counts while installed; restores everything on exit."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.task = None
        self._stack: list[int] = []
        self._gb_seen: set = set()
        self._trials_seen: set = set()
        self._undo: list[tuple[object, str, object]] = []

    def new_pass(self):
        """Repeats are counted within one pass over the task list."""
        self._gb_seen.clear()
        self._trials_seen.clear()

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn, probe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = probe(tracer, args, kwargs) if probe is not None else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.task]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if note is not None:
                note(out)
            return out

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every boundary in BOUNDARIES; returns self for ``with``."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "segrenum" or key.startswith("segrenum."))
        ]
        for name, owner, attr in BOUNDARIES:
            probe = PROBES.get(name)
            if owner in CLASSES:
                cls = CLASSES[owner]
                self._set(cls, attr, self._wrap(name, getattr(cls, attr), probe))
                continue
            home = kernel.get() if owner == "kernel" else sys.modules[owner]
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, probe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- probes: counts that need the arguments or the result ---------------------


def _gb_probe(tracer, args, kwargs):
    ideal = args[0]
    order = args[1] if len(args) > 1 else kwargs.get("order", GREVLEX)
    counts = tracer.counts
    if order in ideal._gb:
        counts["groebner.gb.hits"] += 1
        return None
    counts["groebner.gb.computed"] += 1
    if order.kind == "block":
        counts["groebner.gb.block"] += 1
    key = (_gens_key(ideal), order)
    if key in tracer._gb_seen:
        counts["groebner.gb.repeats"] += 1
    tracer._gb_seen.add(key)

    def note(basis):
        counts["groebner.gb.basis_elems"] += len(basis)

    return note


def _reduce_probe(tracer, args, kwargs):
    def note(out):
        if not out[0]:
            tracer.counts["kernel.reduce_full.zero"] += 1

    return note


def _mora_probe(tracer, args, kwargs):
    def note(out):
        if out is None:
            tracer.counts["kernel.mora_nf.budget_trips"] += 1

    return note


def _trials_probe(tracer, args, kwargs):
    bound = inspect.signature(vogel.run_trials).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    f = a["f"]
    fs = (f,) if isinstance(f, str) or hasattr(f, "terms") else tuple(f)
    point = a["point"]
    key = (
        tuple(_poly_key(p) for p in fs),
        _gens_key(a["X"]),
        None if point is None else point.coords,
        a["trials"],
        a["seed"],
        a["bound"],
    )
    if key in tracer._trials_seen:
        tracer.counts["vogel.run_trials.repeats"] += 1
    tracer._trials_seen.add(key)
    return None


# (span name, owner, attribute).  The owner is a segrenum module name, a key
# of CLASSES, or "kernel" for the active kernel backend.
BOUNDARIES = [
    ("problem.load", "segrenum.problem", "load_problem"),
    ("cli.run", "segrenum.cli", "run"),
    ("cli.run", "segrenum.cli", "_run_expectation"),
    ("ring.parse", "Ring", "parse"),
    ("ring.substitute", "Polynomial", "substitute"),
    ("ring.translate", "Polynomial", "translate"),
    ("kernel.reduce_full", "kernel", "reduce_full"),
    ("kernel.spoly", "kernel", "spoly"),
    ("kernel.mora_nf", "kernel", "mora_nf"),
    ("groebner.gb", "Ideal", "groebner"),
    ("groebner.saturate", "Ideal", "saturate"),
    ("groebner.saturate_poly", "Ideal", "saturate_poly"),
    ("groebner.quotient", "Ideal", "quotient"),
    ("groebner.intersect", "Ideal", "intersect"),
    ("groebner.eliminate", "Ideal", "eliminate"),
    ("groebner.hilbert", "Ideal", "hilbert_data"),
    ("localmult.standard_basis", "segrenum.localmult", "standard_basis"),
    ("localmult.tangent_cone", "segrenum.localmult", "tangent_cone"),
    ("localmult.local_dim_mult", "segrenum.localmult", "local_dim_mult"),
    ("vogel.run_trials", "segrenum.vogel", "run_trials"),
    ("vogel.random_vogel_sequence", "segrenum.vogel", "random_vogel_sequence"),
    ("vogel.certify", "segrenum.vogel", "_certify"),
    ("vogel.vogel_run", "segrenum.vogel", "vogel_run"),
    ("cycles.linear_reduce", "segrenum.cycles", "linear_reduce"),
    ("cycles.implicitize", "segrenum.cycles", "implicitize"),
    ("cycles.circ_index", "segrenum.cycles", "circ_index"),
    ("cycles.tworzewski_index", "segrenum.cycles", "tworzewski_index"),
    ("cycles.tworzewski_point_part", "segrenum.cycles", "tworzewski_point_part"),
    ("cycles.restricted_point_part", "segrenum.cycles", "restricted_point_part"),
    ("cycles.proper_intersect", "segrenum.cycles", "proper_intersect"),
    ("cycles.divisor_cut", "segrenum.cycles", "divisor_cut"),
    ("cycles.cycle_local_mult", "segrenum.cycles", "cycle_local_mult"),
]

PROBES = {
    "groebner.gb": _gb_probe,
    "kernel.reduce_full": _reduce_probe,
    "kernel.mora_nf": _mora_probe,
    "vogel.run_trials": _trials_probe,
}


# -- aggregation ---------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def summarize(spans, counts, passes: int) -> tuple[dict[str, float], Counter]:
    """Per-layer metrics per traced pass, keyed as in BENCHMARK.json, and
    the number of spans recorded under each boundary name."""
    n = len(spans)
    dur = [rec[2] - rec[1] for rec in spans]
    child = [0.0] * n
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            child[rec[3]] += dur[i]
    calls: Counter = Counter()
    total: Counter = Counter()  # outermost span of each name only
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    draws = 0
    for i, rec in enumerate(spans):
        name, parent = rec[0], rec[3]
        calls[name] += 1
        own = dur[i] - child[i]
        self_by_name[name] += own
        self_by_layer[name.split(".", 1)[0]] += own
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] += dur[i]
        if name == "vogel.certify" and parent >= 0:
            draws += spans[parent][0] == "vogel.random_vogel_sequence"

    per = 1.0 / passes
    c = counts
    m = {
        "problem.load.s": total["problem.load"] * per,
        "cli.run.self_s": self_by_name["cli.run"] * per,
        "ring.parse.calls": calls["ring.parse"] * per,
        "ring.substitute.calls": calls["ring.substitute"] * per,
        "ring.substitute.s": total["ring.substitute"] * per,
        "ring.translate.s": total["ring.translate"] * per,
        "ring.self_s": self_by_layer["ring"] * per,
        "kernel.reduce_full.calls": calls["kernel.reduce_full"] * per,
        "kernel.reduce_full.s": total["kernel.reduce_full"] * per,
        "kernel.reduce_full.zero_frac": _ratio(
            c["kernel.reduce_full.zero"], calls["kernel.reduce_full"]
        ),
        "kernel.spoly.calls": calls["kernel.spoly"] * per,
        "kernel.mora_nf.calls": calls["kernel.mora_nf"] * per,
        "kernel.mora_nf.s": total["kernel.mora_nf"] * per,
        "kernel.mora_nf.budget_trips": c["kernel.mora_nf.budget_trips"] * per,
        "kernel.self_s": self_by_layer["kernel"] * per,
        "groebner.gb.calls": calls["groebner.gb"] * per,
        "groebner.gb.block_frac": _ratio(
            c["groebner.gb.block"], c["groebner.gb.computed"]
        ),
        "groebner.gb.cache_hit_frac": _ratio(
            c["groebner.gb.hits"], calls["groebner.gb"]
        ),
        "groebner.gb.repeat_frac": _ratio(
            c["groebner.gb.repeats"], c["groebner.gb.computed"]
        ),
        "groebner.gb.s": total["groebner.gb"] * per,
        "groebner.gb.self_s": self_by_name["groebner.gb"] * per,
        "groebner.gb.basis_len": _ratio(
            c["groebner.gb.basis_elems"], c["groebner.gb.computed"]
        ),
        "groebner.saturate.calls": calls["groebner.saturate"] * per,
        "groebner.saturate.s": total["groebner.saturate"] * per,
        "groebner.saturate_poly.calls": calls["groebner.saturate_poly"] * per,
        "groebner.quotient.calls": calls["groebner.quotient"] * per,
        "groebner.intersect.calls": calls["groebner.intersect"] * per,
        "groebner.intersect.s": total["groebner.intersect"] * per,
        "groebner.eliminate.s": total["groebner.eliminate"] * per,
        "groebner.hilbert.s": total["groebner.hilbert"] * per,
        "localmult.standard_basis.calls": calls["localmult.standard_basis"] * per,
        "localmult.standard_basis.self_s": self_by_name["localmult.standard_basis"]
        * per,
        "localmult.tangent_cone.s": total["localmult.tangent_cone"] * per,
        "localmult.local_dim_mult.calls": calls["localmult.local_dim_mult"] * per,
        "localmult.local_dim_mult.s": total["localmult.local_dim_mult"] * per,
        "vogel.run_trials.calls": calls["vogel.run_trials"] * per,
        "vogel.run_trials.repeat_frac": _ratio(
            c["vogel.run_trials.repeats"], calls["vogel.run_trials"]
        ),
        "vogel.random_vogel_sequence.s": total["vogel.random_vogel_sequence"] * per,
        "vogel.draws_per_sequence": _ratio(
            draws, calls["vogel.random_vogel_sequence"]
        ),
        "vogel.vogel_run.calls": calls["vogel.vogel_run"] * per,
        "vogel.vogel_run.s": total["vogel.vogel_run"] * per,
        "cycles.linear_reduce.calls": calls["cycles.linear_reduce"] * per,
        "cycles.linear_reduce.s": total["cycles.linear_reduce"] * per,
        "cycles.implicitize.s": total["cycles.implicitize"] * per,
        "cycles.self_s": self_by_layer["cycles"] * per,
        "trace.spans": n * per,
    }
    return m, calls


# Modules whose non-blank source lines are reported; "kernel" counts the
# kernel package's Python and Cython sources, not the generated C file.
SOURCE_MODULES = (
    "cli",
    "cycles",
    "errors",
    "groebner",
    "kernel",
    "localmult",
    "orders",
    "problem",
    "ring",
    "vogel",
)


def source_lines(package_dir: Path) -> dict[str, int]:
    def count(paths):
        return sum(
            sum(1 for line in p.read_text(encoding="utf-8").splitlines() if line.strip())
            for p in paths
        )

    out = {}
    for mod in SOURCE_MODULES:
        if mod == "kernel":
            paths = sorted((package_dir / "kernel").glob("*.py")) + sorted(
                (package_dir / "kernel").glob("*.pyx")
            )
        else:
            paths = [p for p in [package_dir / f"{mod}.py"] if p.is_file()]
        out[f"{mod}.src_lines"] = count(paths)
    everything = sorted(package_dir.rglob("*.py")) + sorted(package_dir.rglob("*.pyx"))
    out["segrenum.src_lines"] = count(everything)
    return out
