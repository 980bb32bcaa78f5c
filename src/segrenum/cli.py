"""Command-line interface.

One command per invocation, operating on a problem file:

    segrenum segre FILE --ideal F --point P --trials 4 --seed 7
    segrenum check FILE
    segrenum corpus --run

Reports are deterministic for fixed (file, command, seed, trials,
coeff-bound); timing is reported but excluded from comparisons.  Exit codes:
0 success, 1 failed expectation check, the error type's own code for a
``SegrenumError`` (2 input, 3 genericity, 4 improper intersection, 5
unresolved moving support), 6 internal error (any other exception: a bug,
reported with its traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from importlib import resources

from .cycles import (
    circ_index,
    divisor_cut,
    implicitize,
    proper_intersect,
    restricted_point_part,
    tworzewski_index,
    tworzewski_point_part,
)
from .errors import InputError, SegrenumError
from .localmult import colength, local_dim_mult, tangent_cone
from .orders import order_from_name
from .problem import Problem, load_problem
from .vogel import (
    DEFAULT_BOUND,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    fixed_support,
    segre_at,
    polar_at,
    sharing,
)

EXIT_CHECK_FAILED = 1
EXIT_INTERNAL = SegrenumError.exit_code


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _point_of(problem: Problem, args):
    name = getattr(args, "point", None)
    return problem.point(name) if name else None


def _trials(problem: Problem, args):
    """The point, trials, seed and coefficient bound of a trial command."""
    return _point_of(problem, args), args.trials, args.seed, args.coeff_bound


def _named_cycles(problem: Problem, names):
    return [problem.cycle(nm) for nm in names]


def _ideal_doc(ideal) -> dict:
    return {"generators": ideal.canonical_strings(), "dim": ideal.krull_dimension()}


def _fixed_doc(fixed) -> list:
    return [
        {"ideal": ideal.canonical_strings(), "dim": d, "mult": m}
        for ideal, d, m in fixed
    ]


# -- command handlers ----------------------------------------------------------


def _cmd_gb(problem, args):
    ideal = problem.ideal(args.ideal)
    order = order_from_name(args.order)
    gb = ideal.groebner(order)
    return {"order": args.order, "generators": [str(g) for g in gb]}


def _cmd_dim(problem, args):
    return {"dim": problem.ideal(args.ideal).krull_dimension()}


def _cmd_mult(problem, args):
    d, m = local_dim_mult(problem.ideal(args.ideal), _point_of(problem, args))
    return {"dim": d, "mult": m}


def _cmd_tangent_cone(problem, args):
    ideal = problem.ideal(args.ideal).translate(_point_of(problem, args))
    return {"generators": tangent_cone(ideal).canonical_strings()}


def _cmd_colength(problem, args):
    ideal = problem.ideal(args.ideal)
    return {"colength": colength(ideal, _point_of(problem, args))}


def _mult_result_doc(res) -> dict:
    return {
        "values": list(res.values),
        "stable": res.stable,
        "trial_vectors": [list(v) for v in res.trial_vectors],
    }


def _cmd_segre(problem, args):
    f = problem.ideal(args.ideal).gens
    return _mult_result_doc(segre_at(f, problem.space, *_trials(problem, args)))


def _cmd_polar(problem, args):
    f = problem.ideal(args.ideal).gens
    return _mult_result_doc(polar_at(f, problem.space, *_trials(problem, args)))


def _cmd_vogel(problem, args):
    f = problem.ideal(args.ideal).gens
    res = segre_at(f, problem.space, *_trials(problem, args))
    idx = res.trial_vectors.index(res.values)  # the first trial at the minimum
    run = res.runs[idx]
    return {
        "values": list(res.values),
        "off": list(run.mult_off),
        "stable": res.stable,
        "trial": idx,
        "elements": [str(h) for h in run.sequence.elements],
        "steps": [
            {
                "k": s.k,
                "dim": s.local_dim,
                "mult": s.mult,
                "off_dim": s.off_dim,
                "off_mult": s.off_mult,
                "z_mult": s.z_mult,
            }
            for s in run.steps
        ],
    }


def _cmd_fixed(problem, args):
    f = problem.ideal(args.ideal).gens
    rep = fixed_support(f, problem.space, *_trials(problem, args))
    return {
        "per_codim": [
            {
                "codim": e.k,
                "expected_dim": e.expected_dim,
                "status": e.status,
                "ideal": e.ideal.canonical_strings() if e.ideal else None,
                "dim": e.dim,
            }
            for e in rep.per_codim
        ]
    }


def _cmd_cut(problem, args):
    cycle = problem.cycle(args.cycle)
    h = problem.ring.parse(args.divisor)
    out = divisor_cut(h, cycle)
    return {
        "parts": [
            {"ideal": ideal.canonical_strings(), "coeff": c} for ideal, c in out.parts
        ]
    }


def _cmd_intersect(problem, args):
    cycles = _named_cycles(problem, args.cycles)
    res = proper_intersect(cycles, _point_of(problem, args), args.seed)
    return {
        "parts": [
            {"ideal": ideal.canonical_strings(), "coeff": c}
            for ideal, c in res.cycle.parts
        ],
        "mult": res.mult,
    }


def _index_doc(idx) -> dict:
    return {
        "by_dim": list(idx.by_dim),
        "by_codim": list(idx.by_codim),
        "total": idx.total,
        "stable": idx.stable,
    }


def _cmd_circ(problem, args):
    f = problem.ideal(args.ideal).gens
    cycle = problem.cycle(args.cycle)
    return _index_doc(circ_index(f, cycle, *_trials(problem, args)))


def _cmd_tworzewski(problem, args):
    cycles = _named_cycles(problem, args.cycles)
    return _index_doc(tworzewski_index(cycles, *_trials(problem, args)))


def _cmd_point_part(problem, args):
    trial_args = _trials(problem, args)
    if args.cycles and (args.ideal or args.cycle):
        raise InputError("give either --cycles or --ideal with --cycle")
    if args.cycles:
        rep = tworzewski_point_part(_named_cycles(problem, args.cycles), *trial_args)
    elif args.ideal and args.cycle:
        rep = restricted_point_part(
            problem.ideal(args.ideal).gens,
            problem.cycle(args.cycle),
            *trial_args,
        )
    else:
        raise InputError("point-part needs --cycles NAMES or --ideal A --cycle Z")
    return {
        "point": rep.point,
        "fixed": _fixed_doc(rep.fixed),
        "notes": list(rep.notes),
    }


def _cmd_implicitize(problem, args):
    mdef = problem.map_def(args.map)
    ideal = implicitize(mdef.components, mdef.param_ring, problem.ring)
    return _ideal_doc(ideal)


def _run_command(problem: Problem, ns):
    """Run one command; the commands run on one loaded problem share its
    seeded Vogel trials."""
    with sharing(problem.runs):
        return COMMANDS[ns.command](problem, ns)


def _run_expectation(problem: Problem, exp, defaults) -> dict | None:
    """Returns a failure entry, or None when the expectation holds."""
    # the path right after the command, so greedy list flags (--cycles NAME...)
    # never swallow it; the line's own flags last, in any spelling, so they win
    flags = [s for flag, value in defaults for s in (flag, str(value))]
    argv = [exp.argv[0], problem.path, *flags, *exp.argv[1:]]
    try:
        ns = build_parser().parse_args(argv)
        if ns.command in ("check", "corpus"):
            raise InputError(f"{ns.command} cannot be used in expect lines")
        got = _run_command(problem, ns)
    except SegrenumError as exc:
        return {
            "line": exp.line_no,
            "command": " ".join(exp.argv),
            "expected": exp.expected,
            "error": f"{type(exc).__name__}: {exc}",
        }
    got_norm = json.loads(json.dumps(got))
    mismatch = {
        key: got_norm.get(key, "<missing>")
        for key, want in exp.expected.items()
        if got_norm.get(key, "<missing>") != want
    }
    if mismatch:
        return {
            "line": exp.line_no,
            "command": " ".join(exp.argv),
            "expected": exp.expected,
            "got": mismatch,
        }
    return None


def _cmd_check(problem, args):
    defaults = [
        ("--seed", args.seed),
        ("--trials", args.trials),
        ("--coeff-bound", args.coeff_bound),
    ]
    failures = []
    for exp in problem.expects:
        bad = _run_expectation(problem, exp, defaults)
        if bad is not None:
            failures.append(bad)
    return {"checked": len(problem.expects), "failures": failures}


def corpus_files():
    base = resources.files("segrenum") / "corpus"
    return sorted(p.name for p in base.iterdir() if p.name.endswith(".prob"))


def corpus_path(name: str) -> str:
    base = resources.files("segrenum") / "corpus"
    target = base / name
    if not target.is_file():
        raise InputError(f"no corpus file named {name!r}")
    return str(target)


def _cmd_corpus(args):
    files = corpus_files()
    if not args.run:
        return {"files": files}, 0
    results = {}
    bad = 0
    for name in files:
        problem = load_problem(corpus_path(name))
        doc = _cmd_check(problem, args)
        results[name] = doc
        bad += len(doc["failures"])
    return {"files": files, "results": results}, EXIT_CHECK_FAILED if bad else 0


COMMANDS = {
    "gb": _cmd_gb,
    "dim": _cmd_dim,
    "mult": _cmd_mult,
    "tangent-cone": _cmd_tangent_cone,
    "colength": _cmd_colength,
    "segre": _cmd_segre,
    "polar": _cmd_polar,
    "vogel": _cmd_vogel,
    "fixed": _cmd_fixed,
    "cut": _cmd_cut,
    "intersect": _cmd_intersect,
    "circ": _cmd_circ,
    "tworzewski": _cmd_tworzewski,
    "point-part": _cmd_point_part,
    "implicitize": _cmd_implicitize,
    "check": _cmd_check,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    common = _ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    common.add_argument("--coeff-bound", type=int, default=DEFAULT_BOUND)
    common.add_argument("--format", choices=("text", "json"), default="text")

    parser = _ArgumentParser(
        prog="segrenum",
        description="Local intersection invariants of polynomial ideals and cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, *, needs_file=True, **kwargs):
        sp = sub.add_parser(name, parents=[common], **kwargs)
        if needs_file:
            sp.add_argument("file", help="problem file")
        return sp

    sp = add("gb", help="reduced Groebner basis of a named ideal")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--order", default="grevlex", help="grevlex|lex|grlex|elim:k")

    sp = add("dim", help="Krull dimension of a named ideal")
    sp.add_argument("--ideal", required=True)

    for name, help_text in (
        ("mult", "local dimension and Hilbert-Samuel multiplicity"),
        ("tangent-cone", "ideal of the tangent cone at a point"),
        ("colength", "vector-space codimension of a zero-dimensional ideal"),
        ("segre", "Segre numbers of an ideal on the space at a point"),
        ("polar", "polar multiplicities of an ideal on the space at a point"),
        ("vogel", "full Vogel-cycle trace of the lex-min certified trial"),
        ("fixed", "fixed/moving classification of the Vogel parts per codimension"),
    ):
        sp = add(name, help=help_text)
        sp.add_argument("--ideal", required=True)
        sp.add_argument("--point")

    sp = add("cut", help="divisor cut of a named cycle")
    sp.add_argument("--divisor", required=True, help="polynomial text")
    sp.add_argument("--cycle", required=True)

    sp = add("intersect", help="proper intersection product of named cycles")
    sp.add_argument("--cycles", nargs="+", required=True)
    sp.add_argument("--point")

    sp = add("circ", help="restriction index of an ideal on a cycle")
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--cycle", required=True)
    sp.add_argument("--point")

    sp = add("tworzewski", help="pointwise product index of named cycles")
    sp.add_argument("--cycles", nargs="+", required=True)
    sp.add_argument("--point")

    sp = add("point-part", help="point coefficient of a product, with fixed parts")
    sp.add_argument("--cycles", nargs="*", default=[])
    sp.add_argument("--ideal")
    sp.add_argument("--cycle")
    sp.add_argument("--point")

    sp = add("implicitize", help="vanishing ideal of the closure of a map image")
    sp.add_argument("--map", required=True)

    add("check", help="verify the file's expect lines")

    sp = add("corpus", needs_file=False, help="list or run the shipped examples")
    sp.add_argument("--run", action="store_true", help="check every shipped file")

    return parser


# -- rendering -----------------------------------------------------------------


def _text_lines(value, key=None, indent=0):
    pad = "  " * indent
    label = f"{key}: " if key is not None else ""
    if isinstance(value, dict):
        if key is not None:
            yield f"{pad}{key}:"
            indent += 1
            pad = "  " * indent
        for k, v in value.items():
            yield from _text_lines(v, k, indent)
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            yield f"{pad}{label}[{', '.join(str(v) for v in value)}]"
        else:
            yield f"{pad}{label if key else ''}".rstrip() or f"{pad}-"
            for v in value:
                if isinstance(v, dict):
                    yield f"{pad}  -"
                    for k2, v2 in v.items():
                        yield from _text_lines(v2, k2, indent + 2)
                else:
                    yield from _text_lines(v, None, indent + 1)
    else:
        yield f"{pad}{label}{value}"


def render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return "\n".join(_text_lines(doc)) + "\n"


def run(argv) -> tuple[dict, str, int]:
    ns = build_parser().parse_args(argv)
    started = time.perf_counter()
    if ns.command == "corpus":
        result, code = _cmd_corpus(ns)
    else:
        problem = load_problem(ns.file)
        result = _run_command(problem, ns)
        code = 0
        if ns.command == "check" and result["failures"]:
            code = EXIT_CHECK_FAILED
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    doc = {
        "command": ns.command,
        "seed": ns.seed,
        "trials": ns.trials,
        "coeff_bound": ns.coeff_bound,
        "result": result,
        "elapsed_ms": elapsed_ms,
    }
    if getattr(ns, "file", None):
        doc["file"] = ns.file
    return doc, ns.format, code


def main(argv=None) -> int:
    try:
        doc, fmt, code = run(sys.argv[1:] if argv is None else argv)
    except SegrenumError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        import traceback  # only this path needs it; importing it costs every run memory

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    sys.stdout.write(render(doc, fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
