"""Acceptance gate: one test per contract criterion.

Run with ``pytest -v tests/test_acceptance.py`` — each criterion reports as a
single pass/fail line (test names carry the criterion number).  All values are
exact integers; tolerance is zero everywhere.  Runtime budgets are asserted
where the contract pins them.
"""

import random
import time
from contextlib import contextmanager

from segrenum import (
    GREVLEX,
    LEX,
    CycleRep,
    Ideal,
    Ring,
    colength,
    implicitize,
    load_problem,
    normal_form,
    segre_at,
    tworzewski_index,
    tworzewski_point_part,
)
from segrenum.cli import corpus_files, corpus_path, run


@contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds the {seconds}s budget"


def _cli(argv):
    doc, _, code = run(argv)
    return doc["result"], code


def _umbrella_ring():
    return Ring(["x1", "x2", "x3"])


def _instances_small():
    """The cheap corpus-derived (f, X) instances."""
    T3 = Ring(["t1", "t2", "t3"])
    out = [("scaled-plane", ["t3*t1", "t3*t2", "t3^2"], Ideal(T3, ()))]
    for m in (1, 2, 3):
        U = _umbrella_ring()
        out.append((f"umbrella-m{m}", ["x2", "x3"], Ideal(U, [f"x2*x1^{m} - x3^2"])))
    return out


def _image_threefold():
    P = Ring(["t1", "t2", "t3"])
    R = Ring(["z1", "z2", "z3", "z4", "z5", "z6"])
    Z = implicitize(["t1", "t2", "t3*t1", "t3*t2", "t3^2", "t3^3"], P, R)
    return ["z3", "z4", "z5", "z6"], Z


def test_criterion_01_cusp_multiplicities():
    path = corpus_path("cusp.prob")
    with budget(2):
        for name, r, s in [("C23", 2, 3), ("C34", 3, 4), ("C57", 5, 7)]:
            result, code = _cli(["mult", "--ideal", name, path])
            assert code == 0
            assert result == {"dim": 1, "mult": min(r, s)}
    print("ACCEPTANCE 1: PASS — cusp multiplicities min(r,s), < 2 s")


def test_criterion_02_segre_polar_fixed_of_scaled_plane():
    path = corpus_path("scaled_plane.prob")
    with budget(10):
        segre, _ = _cli(["segre", "--ideal", "F", path])
        assert segre["values"] == [0, 1, 1, 2]
        assert segre["stable"] is True
        assert len(segre["trial_vectors"]) == 4
        polar, _ = _cli(["polar", "--ideal", "F", path])
        assert polar["values"] == [1, 1, 1, 0]
        assert polar["stable"] is True
        fixed, _ = _cli(["fixed", "--ideal", "F", path])
        by_k = {e["codim"]: e for e in fixed["per_codim"]}
        assert by_k[1]["status"] == "fixed"
        assert by_k[2]["status"] == "moving"
    print("ACCEPTANCE 2: PASS — segre (0,1,1,2), polar (1,1,1,0), fixed/moving split, < 10 s")


def test_criterion_03_line_plus_point_decomposition():
    for m in (1, 2, 3):
        path = corpus_path(f"umbrella_m{m}.prob")
        with budget(20):
            segre, _ = _cli(["segre", "--ideal", "A", path])
            assert segre["values"] == [0, 1, m]
            pp, _ = _cli(["point-part", path, "--cycles", "A", "Z"])
            assert pp["point"] == m
            assert len(pp["fixed"]) == 1
            assert pp["fixed"][0]["ideal"] == ["x2", "x3"]
            assert pp["fixed"][0]["mult"] == 1
    print("ACCEPTANCE 3: PASS — point part m with fixed line A for m=1,2,3, < 20 s each")


def test_criterion_04_product_is_not_associative():
    R = _umbrella_ring()
    origin = Ideal(R, ["x1", "x2", "x3"])
    A = Ideal(R, ["x2", "x3"])
    Z = Ideal(R, ["x2*x1^2 - x3^2"])
    O = CycleRep.from_ideal(origin)
    cA, cZ = CycleRep.from_ideal(A), CycleRep.from_ideal(Z)
    with budget(60):
        # ({0} bullet A) = 1*{0}: all mass at the point, no fixed part
        pp_oa = tworzewski_point_part([O, cA])
        assert pp_oa.point == 1 and pp_oa.fixed == ()
        left = tworzewski_index([CycleRep.build(R, [(origin, pp_oa.point)]), cZ])
        assert left.total == 2
        # (A bullet Z) = A + 2*{0}, then pairing with {0} totals 3
        pp_az = tworzewski_point_part([cA, cZ])
        assert pp_az.point == 2
        assert pp_az.fixed == ((A, 1, 1),)
        az = CycleRep.build(R, [(A, 1), (origin, pp_az.point)])
        right = tworzewski_index([O, az])
        assert right.total == 3
        # the simultaneous triple product agrees with the left bracketing
        triple = tworzewski_index([O, cA, cZ])
        assert triple.total == 2
    print("ACCEPTANCE 4: PASS — totals 2 / 3 / 2 for the three bracketings, < 60 s")


def test_criterion_05_image_threefold_end_to_end():
    path = corpus_path("image_threefold.prob")
    prob = load_problem(path)
    # the pinned values live in the file's expect lines; make them visible here
    expected = [e.expected for e in prob.expects]
    assert {"dim": 3} in expected
    assert any(e.get("mult") == 2 and e.get("dim") == 3 for e in expected)
    assert any(e.get("by_codim") == [0, 1, 1, 2] for e in expected)
    assert any(e.get("point") == 3 for e in expected)
    with budget(120):
        mult, _ = _cli(["mult", "--ideal", "Z", path])
        assert mult == {"dim": 3, "mult": 2}
        result, code = _cli(["check", path])
        assert code == 0
        assert result["checked"] == 5
        assert result["failures"] == []
    print("ACCEPTANCE 5: PASS — implicitized image: mult 2, e2=1, e3=2, point part 3, < 120 s")


def test_criterion_06_complete_intersection_oracle():
    R = Ring(["x", "y"])
    rng = random.Random(606)
    for _ in range(20):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        # independent staircase oracle: count lattice points under the stairs
        box = range(a + b + 1)
        count = sum(1 for i in box for j in box if i < a and j < b)
        assert count == colength(Ideal(R, [f"x^{a}", f"y^{b}"]))
        res = segre_at([f"x^{a}", f"y^{b}"], Ideal(R, ()), trials=2, seed=rng.randint(0, 10**6))
        assert res.values == (0, 0, count)
    print("ACCEPTANCE 6: PASS — 20 random (x^a, y^b): segre (0,0,ab) = colength = staircase")


def test_criterion_07_lex_min_bound_and_seed_independence():
    instances = _instances_small()
    f_big, Z_big = _image_threefold()
    instances.append(("image-threefold", f_big, Z_big))
    for label, f, X in instances:
        mins = []
        for seed in range(1, 11):
            res = segre_at(f, X, trials=2, seed=seed)
            for v in res.trial_vectors:
                assert v >= res.values, f"{label}: trial below reported min at seed {seed}"
            mins.append(res.values)
        assert len(set(mins)) == 1, f"{label}: reported minimum varies across seeds: {set(mins)}"
    print("ACCEPTANCE 7: PASS — 10 seeds: trials ≥_lex reported min; min seed-independent")


def test_criterion_08_embedding_shifts():
    instances = _instances_small()
    rng = random.Random(88)
    R2 = Ring(["x", "y"])
    while len(instances) < 10:
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        instances.append((f"ci-{a}-{b}", [f"x^{a}", f"y^{b}"], Ideal(R2, ())))
    for label, f, X in instances:
        e = segre_at(f, X, trials=2, seed=8).values
        Rw = Ring([*X.ring.names, "w"])
        Xw = Ideal(Rw, [str(g) for g in X.gens])
        # fresh variable joined to the tuple: the whole profile shifts down
        appended = segre_at(list(f) + ["w"], Xw, trials=2, seed=8).values
        assert appended == (0,) + e, label
        # fresh ambient variable not in the tuple: profile gains a top zero
        ambient = segre_at(list(f), Xw, trials=2, seed=8).values
        assert ambient == e + (0,), label
    print("ACCEPTANCE 8: PASS — variable shifts (0,)+e and e+(0,) on 10 instances")


def test_criterion_09_generator_invariance():
    rng = random.Random(909)
    R2 = Ring(["x", "y"])
    instances = _instances_small()
    for a, b in [(2, 2), (3, 1), (1, 3)]:
        instances.append((f"ci-{a}-{b}", [f"x^{a}", f"y^{b}"], Ideal(R2, ())))
    for label, f, X in instances:
        base = segre_at(f, X, trials=2, seed=9).values
        ring = X.ring
        polys = [ring.parse(t) for t in f]
        extras = []
        for _ in range(2):
            combo = ring.zero()
            for p in polys:
                c = rng.randint(-3, 3)
                v = ring.var(rng.randrange(ring.arity))
                combo = combo + p.scale(c) * v if c else combo
            if combo.is_zero():
                combo = polys[0] * ring.var(0)
            extras.append(str(combo))
        redundant = segre_at(list(f) + extras, X, trials=2, seed=9).values
        assert redundant == base, label
    # once on the large instance
    f_big, Z_big = _image_threefold()
    base = segre_at(f_big, Z_big, trials=2, seed=9).values
    extra = "z3 + 2*z5"  # combination of two tuple entries
    redundant = segre_at(f_big + [extra], Z_big, trials=2, seed=9).values
    assert redundant == base
    print("ACCEPTANCE 9: PASS — redundant generators never change segre profiles")


def test_criterion_10_kernel_suite():
    with budget(5):
        # S-polynomial residuals vanish on every corpus basis
        for name in corpus_files():
            prob = load_problem(corpus_path(name))
            ideals = list(prob.ideals.values())
            if not prob.space.is_zero():
                ideals.append(prob.space)
            for ideal in ideals:
                gb = ideal.groebner()
                ring = ideal.ring
                for i in range(len(gb)):
                    for j in range(i + 1, len(gb)):
                        li = max(gb[i].terms, key=GREVLEX.key)
                        lj = max(gb[j].terms, key=GREVLEX.key)
                        lcm = tuple(max(a, b) for a, b in zip(li, lj))
                        mi = ring.from_terms({tuple(l - a for l, a in zip(lcm, li)): 1})
                        mj = ring.from_terms({tuple(l - a for l, a in zip(lcm, lj)): 1})
                        s = mi * gb[i] - mj * gb[j]
                        assert normal_form(s, gb, GREVLEX).is_zero(), name
        # saturation idempotence
        R2 = Ring(["x", "y"])
        for gens, g in [
            (["x^2*y"], "y"),
            (["x^2", "x*y"], "x"),
            (["x^3*y^2 - x*y^4"], "x*y"),
        ]:
            I = Ideal(R2, gens)
            s1 = I.saturate_poly(R2.parse(g))
            assert s1.saturate_poly(R2.parse(g)) == s1
        # twisted-cubic lex basis oracle
        R3 = Ring(["x1", "x2", "x3"])
        T = Ideal(R3, ["x2 - x1^2", "x3 - x1^3"])
        lex_gb = [str(p) for p in T.groebner(LEX)]
        assert lex_gb == [
            "x1^2 - x2",
            "x1*x2 - x3",
            "-x2^2 + x1*x3",
            "x2^3 - x3^2",
        ]
    print("ACCEPTANCE 10: PASS — S-poly residuals, saturation idempotence, lex oracle, < 5 s")
