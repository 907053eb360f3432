"""Tests of the benchmark's independent checkers and closed forms.

    python3 -m pytest -q bench/test_checks.py

Each checker must accept what the program reports and reject a report
with one value or one interval made wrong.  The closed forms are compared
with the exhaustive partition search of tests/oracles.py on small rings.
"""

import copy
import itertools
import json
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "tests"))

import checks  # noqa: E402
import oracles  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from stanley import cli  # noqa: E402


def run_verb(tmp_path, argv):
    out = tmp_path / "report.json"
    assert cli.main(list(argv) + ["--json", str(out)]) == 0
    return json.loads(out.read_text())


# ---------------------------------------------------------------------------
# closed forms against the exhaustive search of tests/oracles.py
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module", ["ideal", "quotient"])
@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 5) for d in range(1, n + 1)])
def test_veronese_closed_form_matches_oracle(n, d, module):
    g, points = checks.poset(workloads.veronese(n, d), n, module)
    if not points:
        pytest.skip("the zero module")
    assert oracles.naive_sdepth(points, g) == checks.veronese_sdepth(n, d, module)


def small_complete_intersections():
    """Every shape of at most three variables, exponents 1 and 2."""
    for n in range(1, 4):
        for labels in itertools.product(range(n + 1), repeat=n):
            # label 0 leaves a variable free; labels 1..m name the blocks
            m = max(labels)
            if sorted(set(labels) - {0}) != list(range(1, m + 1)) or m == 0:
                continue
            for exps in itertools.product((1, 2), repeat=n):
                gens = []
                for b in range(1, m + 1):
                    gens.append(tuple(e if lab == b else 0 for lab, e in zip(labels, exps)))
                yield n, m, gens


@pytest.mark.parametrize("module", ["ideal", "quotient"])
def test_complete_intersection_closed_form_matches_oracle(module):
    compared = 0
    for n, m, gens in small_complete_intersections():
        g, points = checks.poset(gens, n, module)
        if not points or len(points) > 12:
            continue
        compared += 1
        assert oracles.naive_sdepth(points, g) == \
            checks.complete_intersection_sdepth(n, m, module), (gens, module)
    assert compared >= 40


def test_exhaustive_search_matches_oracle():
    rng = workloads.SplitMix64(7)
    compared = 0
    for _ in range(150):
        n = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        gens = [m for m in gens if any(m)]
        for module in ("ideal", "quotient"):
            g, points = checks.poset(gens, n, module)
            if gens and 0 < len(points) <= 10:
                compared += 1
                assert checks.exhaustive_sdepth(points, g) == oracles.naive_sdepth(points, g)
    assert compared >= 100


def test_generated_complete_intersections_have_disjoint_supports():
    rng = workloads.SplitMix64(3)
    for _ in range(200):
        n, m, gens = workloads.complete_intersection(rng)
        assert len(gens) == m and all(any(g) for g in gens)
        for a, b in itertools.combinations(gens, 2):
            assert not any(x and y for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# membership and decomposition
# ---------------------------------------------------------------------------

def test_parse_round_trip():
    gens = [(2, 0, 1), (0, 1, 0)]
    assert checks.parse_ideal(workloads.render_ideal(gens), 3) == gens
    assert checks.parse_ideal("0", 2) == []
    assert checks.parse_monomial("1", 2) == (0, 0)
    assert checks.parse_component(["x1^2", "x3"], 3) == {0: 2, 2: 1}


def test_decomposition_check_accepts_and_rejects():
    gens = [(2, 0, 0), (0, 1, 1)]
    good = [{0: 2, 1: 1}, {0: 2, 2: 1}]
    assert checks.check_decomposition(gens, good, 3) == []
    assert checks.check_decomposition(gens, good[:1], 3)
    assert checks.check_decomposition(gens, [{0: 1, 1: 1}, {0: 2, 2: 1}], 3)
    assert checks.check_decomposition(gens, good + [{0: 2, 1: 1, 2: 1}], 3) == \
        ["component Q3 is redundant"]


def test_components_build_the_ideal_they_decompose():
    rng = workloads.SplitMix64(11)
    for n, s, _ in workloads.DIRECT_SUM_STRATA:
        comps = workloads.random_components(rng, n, s)
        gens = workloads.ideal_from_components(comps, n)
        assert checks.check_decomposition(gens, comps, n) == []


def test_size_and_hypothesis_known_cases():
    assert checks.brute_force_size([{0: 2, 1: 1}, {0: 2, 2: 1}], 3) == (3, 2, 1)
    assert checks.hypothesis_holds([{0: 2, 1: 1}, {0: 2, 2: 1}])
    # x1^2 lies in neither (x1^3, x3) nor (x2^3, x4), whose supports cover {x1, x2}
    assert not checks.hypothesis_holds([{0: 2, 1: 2}, {0: 3, 2: 1}, {1: 3, 3: 1}])


def test_corpus_report_check(tmp_path):
    argv = ("corpus", "--seed", "5", "--count", "12", "--family", "general",
            "--n", "2..3", "--gens", "2..3", "--max-exponent", "2")
    report = run_verb(tmp_path, argv)
    assert checks.check_corpus_report(report, 12) == []
    assert checks.check_corpus_report(report, 13)
    small = [k for k, r in enumerate(report["results"])
             if len(checks.poset(checks.parse_ideal(r["ideal"], r["n"]), r["n"],
                                 "quotient")[1]) <= checks.EXHAUSTIVE_POINTS]
    assert small
    wrong = [("size", lambda r: r["size"].update(size=r["size"]["size"] + 1)),
             ("bound", lambda r: r["bound"].update(value=r["sdepth_exact"] + 1)),
             ("component", lambda r: r["decomposition"].pop()),
             ("hypothesis", lambda r: r["hypothesis"].update(
                 satisfied=not r["hypothesis"]["satisfied"]))]
    # the exact value is compared with a search only on small posets
    spoiled = [(label, k) for label, _ in wrong for k in range(len(report["results"]))]
    spoiled += [("sdepth", k) for k in small]
    spoil = dict(wrong, sdepth=lambda r: r.update(sdepth_exact=r["sdepth_exact"] + 1))
    for label, k in spoiled:
        bad = copy.deepcopy(report)
        spoil[label](bad["results"][k])
        assert checks.check_corpus_report(bad, 12), (label, k)


# ---------------------------------------------------------------------------
# witness partitions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("module", ["ideal", "quotient"])
def test_sdepth_report_check(tmp_path, module):
    n, d = 4, 2
    gens = workloads.veronese(n, d)
    expected = checks.veronese_sdepth(n, d, module)
    report = run_verb(tmp_path, ("sdepth", workloads.render_ideal(gens), "--ring", str(n),
                                 "--module", module))
    assert checks.check_sdepth_report(report, gens, n, module, expected) == []
    assert checks.check_sdepth_report(report, gens, n, module, expected + 1)

    ivs = report["intervals"]
    wide = next(k for k, iv in enumerate(ivs) if iv["lower"] != iv["upper"])
    high = next(k for k, iv in enumerate(ivs) if any(iv["lower"]))
    spoiled = {
        "dropped": ivs[1:],
        "doubled": ivs + ivs[:1],
        "shrunk": ivs[:wide] + [dict(ivs[wide], lower=ivs[wide]["upper"])] + ivs[wide + 1:],
        "lowered": ivs[:high] + [dict(ivs[high], lower=[0] * n)] + ivs[high + 1:],
    }
    for label, intervals in spoiled.items():
        bad = dict(report, intervals=intervals)
        assert checks.check_sdepth_report(bad, gens, n, module, expected), label


def test_partition_check_rejects_low_dimension():
    # S/(x1*x2): the chain (0,0) < (1,0) has dimension 1 at its top
    g, points = checks.poset([(1, 1)], 2, "quotient")
    good = [((0, 0), (1, 0)), ((0, 1), (0, 1))]
    assert checks.check_partition(points, g, good, 1) == []
    assert checks.check_partition(points, g, [((0, 0), (0, 0)), ((1, 0), (1, 0)),
                                              ((0, 1), (0, 1))], 1)


def test_verify_sum_report_check(tmp_path):
    report = run_verb(tmp_path, ("verify-sum", "x1^2, x2*x3", "--degree-cap", "6"))
    assert checks.check_verify_sum_report(report) == []
    assert report["results"][0]["checked"] == 84
    bad = copy.deepcopy(report)
    bad["results"][0]["checked"] -= 1
    assert checks.check_verify_sum_report(bad)
    bad = copy.deepcopy(report)
    bad["results"][-1]["ok"] = False
    assert checks.check_verify_sum_report(bad)
    bad = copy.deepcopy(report)
    bad["results"].pop()
    assert checks.check_verify_sum_report(bad)


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_are_fixed_by_seed_and_index(name):
    make = workloads.WORKLOADS[name].make_round
    argvs = [c.argv for c in make(9, 2)]
    assert argvs == [c.argv for c in make(9, 2)]
    assert argvs != [c.argv for c in make(9, 3)]
    assert argvs != [c.argv for c in make(10, 2)]


# ---------------------------------------------------------------------------
# the speed reference
# ---------------------------------------------------------------------------

def test_reference_inputs_are_consistent():
    """The reference runs every check to its end: its inputs pass them."""
    assert speed._GENERATORS == workloads.ideal_from_components(speed._COMPONENTS, 4)
    assert checks.check_decomposition(speed._GENERATORS, speed._COMPONENTS, 4) == []
    assert speed._POINTS == checks.poset([(1, 1, 1)], 3, "quotient")[1]
    assert checks.exhaustive_sdepth(speed._POINTS, speed._CAPS) == 2
    assert speed.reference_time() > 0


def test_clock_readings_add_up_and_leave_out_samples():
    with speed.Clock() as clock:
        a = time.perf_counter()
        while time.perf_counter() - a < 0.3:
            pass
        b = time.perf_counter()
        while time.perf_counter() - b < 0.3:
            pass
        c = time.perf_counter()
    assert len(clock._refs) >= 0.6 / speed.SAMPLE_EVERY_S * 0.5
    for read in (clock.nominal, clock.wall):
        assert read(a, a) == 0
        assert read(a, c) == pytest.approx(read(a, b) + read(b, c))
        assert read(a, b) > 0
    # the samples' own time is left out of the wall time
    assert 0.5 * (c - a) < clock.wall(a, c) < c - a
