"""Command line surface: exit codes, stdout, and JSON reports."""

import dataclasses
import itertools
import json
import pathlib

import pytest

from stanley import cli, clear_cache
from stanley.bound import check_size_inequality

EXAMPLE = "x1^2, x2*x3"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(*argv):
    return cli.main(list(argv))


# -- exit codes -------------------------------------------------------------

def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--help")
    assert exc.value.code == 0
    assert "decompose" in capsys.readouterr().out


def test_unknown_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run("frobnicate")
    assert exc.value.code == cli.USAGE_EXIT


def test_missing_ideal(capsys):
    assert run("size") == cli.USAGE_EXIT
    assert "required" in capsys.readouterr().err


def test_text_and_file_conflict(tmp_path, capsys):
    p = tmp_path / "i.txt"
    p.write_text("x1")
    assert run("size", "x1", "--file", str(p)) == cli.USAGE_EXIT


def test_parse_error_exit(capsys):
    assert run("size", "x1^^2") == cli.PARSE_EXIT
    assert "parse error" in capsys.readouterr().err


def test_missing_file_exit(capsys):
    assert run("size", "--file", "/no/such/file.txt") == cli.USAGE_EXIT


def test_bad_pivot_exit(capsys):
    assert run("bound", EXAMPLE, "--pivot", "9") == cli.USAGE_EXIT
    assert run("bound", EXAMPLE, "--pivot", "zero") == cli.USAGE_EXIT


def test_resource_limit_exit(capsys):
    clear_cache()
    assert run("sdepth", EXAMPLE, "--sdepth-cap-points", "1") == cli.RESOURCE_EXIT
    assert "resource limit" in capsys.readouterr().err


def test_timeout_bounds_whole_command(capsys):
    # the bound runs hundreds of depth searches of a few ms each, so only a
    # deadline shared by the whole command stops it within 50 ms
    clear_cache()
    cycle = "x1^3*x2^2, x2^3*x3^2, x3^3*x4^2, x4^3*x1^2"
    assert run("check", cycle, "--sdepth-timeout-ms", "50") == cli.RESOURCE_EXIT
    assert "timed out" in capsys.readouterr().err


def test_violation_exit(monkeypatch, capsys):
    def doctored(I, **kw):
        rep = check_size_inequality(I, **kw)
        return dataclasses.replace(rep, sdepth_ge_bound=False)

    monkeypatch.setattr(cli, "check_size_inequality", doctored)
    assert run("check", EXAMPLE) == cli.VIOLATION_EXIT
    assert "INVARIANT VIOLATION" in capsys.readouterr().out


# -- verbs ------------------------------------------------------------------

def test_decompose_output(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert run("decompose", EXAMPLE, "--json", str(out)) == 0
    text = capsys.readouterr().out
    assert "s = 2" in text
    data = json.loads(out.read_text())
    assert data == {"ideal": "x2*x3, x1^2", "n": 3, "s": 2,
                    "decomposition": [["x1^2", "x2"], ["x1^2", "x3"]]}


def test_size_output(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert run("size", EXAMPLE, "--json", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["size"] == {"h": 3, "v": 2, "size": 1, "witness": [1, 2]}
    assert "size = 1" in capsys.readouterr().out


def test_sdepth_quotient_and_ideal(tmp_path, capsys):
    out = tmp_path / "q.json"
    assert run("sdepth", EXAMPLE, "--json", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["module"] == "quotient"
    assert data["sdepth"] == 1
    assert data["g"] == [2, 1, 1]
    # intervals tile the quotient's poset: disjoint and complete
    seen = set()
    for iv in data["intervals"]:
        lo, hi = iv["lower"], iv["upper"]
        assert all(a <= b for a, b in zip(lo, hi))
        assert iv["dim"] == sum(1 for b, cap in zip(hi, data["g"]) if b == cap)
        assert iv["dim"] >= data["sdepth"]

    assert run("sdepth", EXAMPLE, "--module", "ideal", "--json", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["module"] == "ideal"
    assert data["sdepth"] == 2
    capsys.readouterr()


def test_bound_all_and_single(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert run("bound", EXAMPLE, "--json", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["bound"]["value"] == 1
    assert [pb["pivot"] for pb in data["bound"]["per_pivot"]] == [1, 2]
    for t in data["bound"]["terms"]:
        assert set(t) == {"tau", "w", "ideal_part", "quotient_part",
                          "total", "degenerate"}

    assert run("bound", EXAMPLE, "--pivot", "2", "--json", str(out)) == 0
    data = json.loads(out.read_text())
    assert [pb["pivot"] for pb in data["bound"]["per_pivot"]] == [2]
    capsys.readouterr()


def test_check_report_shape(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run("check", EXAMPLE, "--json", str(out)) == 0
    data = json.loads(out.read_text())
    assert set(data) == {"ideal", "n", "s", "decomposition", "size",
                         "hypothesis", "bound", "sdepth_exact",
                         "inequality_holds"}
    assert set(data["size"]) == {"h", "v", "size", "witness"}
    assert set(data["hypothesis"]) == {"satisfied", "violations"}
    assert set(data["bound"]) == {"value", "per_pivot", "terms"}
    for pb in data["bound"]["per_pivot"]:
        assert set(pb) == {"pivot", "value", "base", "terms", "skipped"}
    assert data["hypothesis"]["satisfied"] is True
    assert data["sdepth_exact"] == 1
    assert data["inequality_holds"] is True
    assert "OK" in capsys.readouterr().out


def test_verify_sum(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run("verify-sum", EXAMPLE, "--json", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["degree_cap"] == 6
    assert [r["pivot"] for r in data["results"]] == [1, 2]
    assert all(r["ok"] and r["checked"] == 84 for r in data["results"])
    capsys.readouterr()


def test_polarize(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run("polarize", "x1^3, x2*x3", "--json", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["added"] == 2
    assert data["polarized_n"] == 5
    # squarefree input polarizes to itself
    assert run("polarize", "x1*x2", "--json", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["added"] == 0
    assert data["polarized"] == data["ideal"]
    capsys.readouterr()


def test_file_and_ring_options(tmp_path, capsys):
    p = tmp_path / "ideal.txt"
    p.write_text("x1*x2, x2^2\n")
    out = tmp_path / "f.json"
    assert run("decompose", "--file", str(p), "--ring", "4",
               "--json", str(out)) == 0
    assert json.loads(out.read_text())["n"] == 4
    capsys.readouterr()


def test_corpus_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("corpus", "--seed", "3", "--count", "4", "--json", str(a)) == 0
    first = capsys.readouterr().out
    assert run("corpus", "--seed", "3", "--count", "4", "--json", str(b)) == 0
    second = capsys.readouterr().out
    assert first == second
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert data["summary"]["count"] == 4
    assert data["summary"]["failures"] == []
    assert "4 ideals, 0 violations" in first


# family, --n, --gens, --max-exponent: the shapes the benchmark's
# corpus-check workload runs.  The reports pin every value and exit code of
# size, the bound and the exact search; a refactor reproduces them byte for
# byte
GOLDEN_CORPORA = (
    ("general", "2..4", "2..2", "2"),
    ("squarefree", "2..5", "2..2", "1"),
    ("hypothesis-satisfying", "2..4", "2..3", "2"),
)


@pytest.mark.parametrize("family, n, gens, max_exponent", GOLDEN_CORPORA)
def test_corpus_reports_match_golden(family, n, gens, max_exponent,
                                     tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run("corpus", "--seed", "9", "--count", "10", "--family", family,
               "--n", n, "--gens", gens, "--max-exponent", max_exponent,
               "--json", str(out)) == 0
    want = GOLDEN / f"corpus_seed9_{family}"
    assert capsys.readouterr().out == want.with_suffix(".out").read_text()
    assert out.read_bytes() == want.with_suffix(".json").read_bytes()


def veronese_text(n, d):
    """I_{n,d}, every squarefree monomial of degree d in n variables."""
    return ", ".join("*".join(f"x{i + 1}" for i in c)
                     for c in itertools.combinations(range(n), d))


def sdepth_reports(module, tmp_path):
    """stdout and the --json files of `stanley sdepth` on I_{n,d}, n <= 6.

    Calls run in order n = 2..6, d = 1..n; the JSON files are joined one
    after another, each as the command wrote it.
    """
    out = tmp_path / "report.json"
    reports = []
    for n in range(2, 7):
        for d in range(1, n + 1):
            assert run("sdepth", veronese_text(n, d), "--ring", str(n),
                       "--module", module, "--json", str(out)) == 0
            reports.append(out.read_bytes())
    return b"".join(reports)


# the witnesses depend on the order in which the search tries d and interval
# tops; a change to that order has to regenerate these files and say so
@pytest.mark.parametrize("module", ["ideal", "quotient"])
def test_sdepth_reports_match_golden(module, tmp_path, capsys):
    reports = sdepth_reports(module, tmp_path)
    want = GOLDEN / f"sdepth_veronese_{module}"
    assert capsys.readouterr().out == want.with_suffix(".out").read_text()
    assert reports == want.with_suffix(".jsons").read_bytes()
