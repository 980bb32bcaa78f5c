"""Command-line interface: payload shapes, determinism, exit codes, corpus."""

import json
import subprocess
import sys

import pytest

from segrenum import GenericityError, SegrenumError, UnresolvedMovingSupportError, vogel
from segrenum.cli import (
    COMMANDS,
    _run_command,
    build_parser,
    corpus_files,
    corpus_path,
    main,
    render,
    run,
)
from segrenum.problem import load_problem
from segrenum.ring import MAX_VARS

CUSP = corpus_path("cusp.prob")
TWISTED = corpus_path("twisted_cubic.prob")
SCALED = corpus_path("scaled_plane.prob")


def _json_doc(argv, capsys):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return json.loads(out), code


# -- payload shapes ----------------------------------------------------------------


def test_mult_payload(capsys):
    doc, code = _json_doc(["mult", "--ideal", "C23", CUSP], capsys)
    assert code == 0
    assert doc["command"] == "mult"
    assert doc["result"] == {"dim": 1, "mult": 2}
    assert doc["file"] == CUSP
    assert doc["seed"] == 101 and doc["trials"] == 4 and doc["coeff_bound"] == 99
    assert isinstance(doc["elapsed_ms"], int)


def test_gb_payload_and_order_flag(capsys):
    doc, _ = _json_doc(["gb", "--ideal", "T", TWISTED], capsys)
    assert doc["result"]["generators"] == ["x1^2 - x2", "x1*x2 - x3", "x2^2 - x1*x3"]
    assert doc["result"]["order"] == "grevlex"
    lex, _ = _json_doc(["gb", "--ideal", "T", "--order", "lex", TWISTED], capsys)
    assert lex["result"]["generators"][-1] == "x2^3 - x3^2"
    elim, _ = _json_doc(["gb", "--ideal", "T", "--order", "elim:1", TWISTED], capsys)
    assert any("x2^3 - x3^2" == g for g in elim["result"]["generators"])


def test_segre_payload(capsys):
    doc, _ = _json_doc(["segre", "--ideal", "F", SCALED], capsys)
    assert doc["result"]["values"] == [0, 1, 1, 2]
    assert doc["result"]["stable"] is True
    assert len(doc["result"]["trial_vectors"]) == 4


def test_vogel_payload(capsys):
    doc, _ = _json_doc(["vogel", "--ideal", "F", "--trials", "2", SCALED], capsys)
    res = doc["result"]
    assert res["values"] == [0, 1, 1, 2]
    assert [s["k"] for s in res["steps"]] == [0, 1, 2, 3]
    assert len(res["elements"]) == 3
    assert {"dim", "mult", "off_dim", "off_mult", "z_mult"} <= set(res["steps"][0])


SEGRE_LINES = [
    (corpus_path(name), exp.argv[1:])
    for name in corpus_files()
    for exp in load_problem(corpus_path(name)).expects
    if exp.argv[0] == "segre"
]


# coefficient bound 1 draws non-generic trials too, so the minimum is not
# always stable nor reached first (seeds 2-5 show both)
@pytest.mark.parametrize("bound", ["99", "1"])
@pytest.mark.parametrize("seed", range(1, 6))
def test_vogel_reports_the_segre_minimum(seed, bound):
    # vogel traces the first trial that reaches segre's lex-min, with its stability
    assert len(SEGRE_LINES) == 4
    for path, rest in SEGRE_LINES:
        argv = [path, *rest, "--seed", str(seed), "--coeff-bound", bound]
        segre = run(["segre", *argv])[0]["result"]
        vogel = run(["vogel", *argv])[0]["result"]
        assert vogel["values"] == segre["values"]
        assert vogel["stable"] == segre["stable"]
        assert vogel["trial"] == segre["trial_vectors"].index(segre["values"])


def test_text_format_renders_nested(capsys):
    code = main(["dim", "--ideal", "C23", CUSP])
    out = capsys.readouterr().out
    assert code == 0
    assert "command: dim" in out
    assert "dim: 1" in out


def test_render_json_sorted():
    doc = {"b": 1, "a": {"z": [1, 2], "y": True}}
    s = render(doc, "json")
    assert s.index('"a"') < s.index('"b"')
    assert json.loads(s) == doc


# -- determinism -------------------------------------------------------------------


def test_same_invocation_is_reproducible(capsys):
    a, _ = _json_doc(["segre", "--ideal", "F", "--seed", "5", SCALED], capsys)
    b, _ = _json_doc(["segre", "--ideal", "F", "--seed", "5", SCALED], capsys)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


# -- exit codes --------------------------------------------------------------------


def test_unknown_ideal_is_input_error(capsys):
    code = main(["mult", "--ideal", "NOPE", CUSP])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_flag_is_input_error(capsys):
    code = main(["mult", "--no-such-flag", CUSP])
    assert code == 2


def test_improper_intersection_exit(tmp_path, capsys):
    text = (
        "ring x1 x2 x3\n"
        "ideal L1: x1, x2\n"
        "ideal L2: x1, x3\n"
        "point O: 0, 0, 0\n"
    )
    f = tmp_path / "improper.prob"
    f.write_text(text)
    code = main(["intersect", "--cycles", "L1", "L2", "--point", "O", str(f)])
    assert code == 4
    assert "improper" in capsys.readouterr().err


def test_check_failure_exit(tmp_path, capsys):
    f = tmp_path / "bad.prob"
    f.write_text('ring x y\nideal A: x\nexpect dim --ideal A == {"dim": 7}\n')
    doc, code = _json_doc(["check", str(f)], capsys)
    assert code == 1
    assert doc["result"]["checked"] == 1
    fail = doc["result"]["failures"][0]
    assert fail["expected"] == {"dim": 7}
    assert fail["got"] == {"dim": 1}


def test_check_lets_each_line_keep_its_own_flags(tmp_path, monkeypatch):
    # check's flags go before the line's, so --trials=1 and its abbreviation
    # run one trial, and a line without flags runs check's seed and trials
    f = tmp_path / "flags.prob"
    one = '{"trial_vectors": [[0, 0, 6]]}'
    f.write_text(
        "ring x y\nideal A: x^2, y^3\npoint O: 0, 0\n"
        f"expect segre --ideal A --point O --trials=1 == {one}\n"
        f"expect segre --ideal A --point O --tri 1 == {one}\n"
        'expect segre --ideal A --point O == {"values": [0, 0, 6]}\n'
    )
    seen = []
    for cmd, fn in list(COMMANDS.items()):
        monkeypatch.setitem(
            COMMANDS, cmd, lambda p, ns, fn=fn: seen.append((ns.seed, ns.trials)) or fn(p, ns)
        )
    doc, _, code = run(["check", "--seed", "5", "--trials", "2", str(f)])
    assert code == 0 and doc["result"]["failures"] == []
    assert seen == [(5, 2), (5, 1), (5, 1), (5, 2)]  # the first is check itself


def test_check_passes_on_corpus_file(capsys):
    doc, code = _json_doc(["check", CUSP], capsys)
    assert code == 0
    assert doc["result"]["failures"] == []
    assert doc["result"]["checked"] == 5


def test_missing_problem_file_is_input_error(tmp_path, capsys):
    code = main(["dim", "--ideal", "A", str(tmp_path / "absent.prob")])
    assert code == 2
    assert "cannot read problem file" in capsys.readouterr().err


@pytest.mark.parametrize("bound", ["-1", "0"])
def test_nonpositive_coeff_bound_is_input_error(bound, capsys):
    code = main(["segre", "--ideal", "F", "--coeff-bound", bound, SCALED])
    assert code == 2
    assert "coefficient bound" in capsys.readouterr().err


def test_zero_denominator_is_input_error(tmp_path, capsys):
    f = tmp_path / "divzero.prob"
    f.write_text("ring x y\nideal A: 1/0*x\n")
    code = main(["dim", "--ideal", "A", str(f)])
    assert code == 2
    assert "division by zero" in capsys.readouterr().err


def test_point_beyond_the_literal_cap_is_input_error(tmp_path, capsys):
    # an exponent form used to reach Fraction, and printing 10^10000 failed
    f = tmp_path / "far.prob"
    f.write_text("ring x y\nideal A: x^2 - y\npoint P: 1e5000, 1e10000\n")
    assert main(["tangent-cone", str(f), "--ideal", "A", "--point", "P"]) == 2
    assert f"{f}:3: bad rational literal" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gen",
    [
        "x^1000000000 - y",
        "(x^10000)^10000 - y",
        "x^10000*x - y",
        pytest.param("1" * 5000 + "*x", id="long-literal"),
        pytest.param("1/" + "1" * 5000 + "*x", id="long-denominator"),
        pytest.param("(2^10000)^10000*x - y", id="huge-constant"),
    ],
)
def test_huge_degree_is_input_error(gen, tmp_path, capsys):
    f = tmp_path / "huge.prob"
    f.write_text(f"ring x y\nideal A: {gen}\n")
    assert main(["dim", "--ideal", "A", str(f)]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


def test_non_ascii_digits_are_input_errors(tmp_path, capsys):
    f = tmp_path / "digits.prob"
    f.write_text("ring x y\nideal A: ٣*x^٢\n", encoding="utf-8")
    assert main(["dim", "--ideal", "A", str(f)]) == 2
    assert f"{f}:2: unexpected character '٣'" in capsys.readouterr().err


def test_deep_nesting_is_input_error(tmp_path, capsys):
    # 1000 nested parentheses used to end in RecursionError, exit 6
    f = tmp_path / "deep.prob"
    f.write_text("ring x y\nideal A: " + "(" * 1000 + "x" + ")" * 1000 + "\n")
    assert main(["dim", "--ideal", "A", str(f)]) == 2
    err = capsys.readouterr().err
    assert f"{f}:2: a nesting of 101 parentheses exceeds the limit 100" in err
    assert "internal error" not in err


def test_a_long_run_of_unary_minuses_parses(tmp_path, capsys):
    # 1000 unary minuses used to end in RecursionError, exit 6
    f = tmp_path / "minus.prob"
    f.write_text("ring x y\nideal A: " + "-" * 1000 + "x, " + "-" * 1001 + "y\n")
    assert main(["dim", "--ideal", "A", "--format", "json", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == {"dim": 0}


def test_a_unary_minus_before_a_power_is_input_error(tmp_path, capsys):
    # x*-y^2 used to parse silently as x*y^2
    for gen in ("x*-y^2", "2*-x^2", "x - -y^2"):
        f = tmp_path / "minus.prob"
        f.write_text(f"ring x y\nideal A: {gen}\n")
        assert main(["dim", "--ideal", "A", str(f)]) == 2
        err = capsys.readouterr().err
        assert f"{f}:2: a unary minus before '^' is ambiguous in ' {gen}'" in err
        assert "write -(a^k) or (-a)^k" in err


def test_colength_of_the_unit_ideal_is_input_error(tmp_path, capsys):
    f = tmp_path / "unit.prob"
    f.write_text("ring x y\nideal U: x, x + 1\n")
    assert main(["colength", "--ideal", "U", str(f)]) == 2
    assert "the point is not on V(I)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gen, argv",
    [
        ("(x + y + z + w)^5000", ["dim", "--ideal", "A"]),
        ("(x*y*z*w)^2500", ["mult", "--ideal", "A", "--point", "P"]),
    ],
    ids=["power", "translation"],
)
def test_huge_expansion_is_input_error(gen, argv, tmp_path, capsys):
    f = tmp_path / "huge.prob"
    f.write_text(f"ring x y z w\nideal A: {gen}\npoint P: 1, 1, 1, 1\n")
    assert main([*argv, str(f)]) == 2
    assert "terms exceeds the limit" in capsys.readouterr().err


def test_huge_map_substitution_is_input_error(tmp_path, capsys):
    # implicitizing puts t = z1 - a - b - c into z2 - t^100: C(103, 3) terms
    f = tmp_path / "huge.prob"
    f.write_text("ring z1 z2 z3 z4\nmap G: t a b c | t + a + b + c, t^100, a, b\nideal A: map(G)\n")
    assert main(["dim", "--ideal", "A", str(f)]) == 2
    assert "terms exceeds the limit" in capsys.readouterr().err


def test_huge_product_expansion_is_input_error(tmp_path, capsys):
    # the second part is expanded under v -> w_v + eta_v on the product space
    f = tmp_path / "huge.prob"
    f.write_text("ring x y z w\nideal A: (x*y*z*w)^200\nideal B: x, y, z\n")
    assert main(["tworzewski", str(f), "--cycles", "B", "A"]) == 2
    assert "terms exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "names, argv",
    [
        (MAX_VARS + 1, ["dim", "--ideal", "A"]),
        # two parts in 33 variables make a product space of 66
        (33, ["tworzewski", "--cycles", "A", "A"]),
    ],
    ids=["ring", "product-space"],
)
def test_too_many_variables_is_input_error(names, argv, tmp_path, capsys):
    f = tmp_path / "wide.prob"
    f.write_text(f"ring {' '.join(f'x{i}' for i in range(names))}\nideal A: x0\n")
    assert main([argv[0], str(f), *argv[1:]]) == 2
    assert f"variables exceed the limit {MAX_VARS}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "ring, gen, dim",
    [("x y z w", "x^1500*y", 3), ("x y z w", "(x*y*z*w)^2500", 3), ("x y", "x^1500*y", 1)],
)
def test_dimension_of_high_exponents(ring, gen, dim, tmp_path, capsys):
    f = tmp_path / "high.prob"
    f.write_text(f"ring {ring}\nideal A: {gen}\n")
    doc, code = _json_doc(["dim", "--ideal", "A", str(f)], capsys)
    assert code == 0 and doc["result"]["dim"] == dim


@pytest.mark.parametrize("order, code", [("elim:9", 2), ("elim:3", 0)])
def test_elimination_block_wider_than_ring(order, code, capsys):
    assert main(["gb", "--ideal", "T", "--order", order, TWISTED]) == code
    if code:
        assert "block(9) eliminates 9 of 3 variables" in capsys.readouterr().err


def test_mapped_error_exits(monkeypatch, capsys):
    def boom_generic(problem, args):
        raise GenericityError("no admissible draw")

    def boom_moving(problem, args):
        raise UnresolvedMovingSupportError("codim 1")

    monkeypatch.setitem(COMMANDS, "dim", boom_generic)
    assert main(["dim", "--ideal", "C23", CUSP]) == 3
    monkeypatch.setitem(COMMANDS, "dim", boom_moving)
    assert main(["dim", "--ideal", "C23", CUSP]) == 5
    err = capsys.readouterr().err
    assert "genericity" in err and "moving" in err

    def boom_internal(problem, args):
        raise RuntimeError("kernel bug")

    monkeypatch.setitem(COMMANDS, "dim", boom_internal)
    assert main(["dim", "--ideal", "C23", CUSP]) == 6
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal error: RuntimeError: kernel bug" in err


def test_every_error_type_has_an_exit_code_and_label(monkeypatch, capsys):
    types = [SegrenumError, *SegrenumError.__subclasses__()]
    assert sorted(t.exit_code for t in types) == [2, 3, 4, 5, 6]
    assert all(isinstance(t.label, str) and t.label for t in types)

    def boom_bare(problem, args):
        raise SegrenumError("no subtype")

    monkeypatch.setitem(COMMANDS, "dim", boom_bare)
    assert main(["dim", "--ideal", "C23", CUSP]) == 6
    assert "internal error: no subtype" in capsys.readouterr().err


# -- corpus ------------------------------------------------------------------------


def test_corpus_listing(capsys):
    doc, code = _json_doc(["corpus"], capsys)
    assert code == 0
    names = doc["result"]["files"]
    assert len(names) == 8
    assert "cusp.prob" in names and "image_threefold.prob" in names


def test_corpus_path_unknown():
    from segrenum import InputError

    with pytest.raises(InputError):
        corpus_path("no_such_file.prob")
    assert all(p.endswith(".prob") for p in (str(q) for q in corpus_files()))


# -- seeded trials shared per loaded problem --------------------------------------


@pytest.mark.parametrize(
    "name, count",
    # one draw per trial of each distinct (f, X, point); run line by line,
    # the scaled plane draws 20, the umbrella 16 and the threefold 8
    [("scaled_plane.prob", 4), ("umbrella_m2.prob", 8), ("image_threefold.prob", 4)],
)
def test_check_draws_each_trial_once(name, count, draws):
    drawn, _ = draws
    assert run(["check", corpus_path(name)])[2] == 0
    assert drawn[0] == count


def test_each_loaded_problem_draws_its_own_trials(draws):
    ns = build_parser().parse_args(["check", SCALED])
    counts = []
    drawn, _ = draws
    for problem in (load_problem(SCALED), load_problem(SCALED)):
        drawn[0] = 0
        assert _run_command(problem, ns)["failures"] == []
        counts.append(drawn[0])
    assert counts == [4, 4]
    assert vogel._memo is None


@pytest.mark.parametrize(
    "name",
    ["scaled_plane.prob", "umbrella_m1.prob", "umbrella_m2.prob", "umbrella_m3.prob", "bullet_nonassoc.prob"],
)
def test_shared_payloads_equal_fresh_runs(name, monkeypatch):
    path = corpus_path(name)
    shared = []

    def capturing(fn):
        def capture(problem, ns):
            out = fn(problem, ns)
            shared.append(out)
            return out

        return capture

    for cmd, fn in list(COMMANDS.items()):
        monkeypatch.setitem(COMMANDS, cmd, capturing(fn))
    assert run(["check", path])[2] == 0
    monkeypatch.undo()
    expects = load_problem(path).expects
    assert len(shared) == len(expects) + 1  # each expect line, then check itself
    for exp, got in zip(expects, shared):
        doc, _, code = run([exp.argv[0], path, *exp.argv[1:], "--format", "json"])
        assert code == 0
        assert render(got, "json") == render(doc["result"], "json"), exp.argv


# -- console script ----------------------------------------------------------------


def test_console_script_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "segrenum.cli", "dim", "--ideal", "C23", "--format", "json", CUSP],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["result"] == {"dim": 1}
