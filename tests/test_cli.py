import json
import time

import pytest

from sepcodes import theorems
from sepcodes.cli import main
from sepcodes.graphs import format_graph, make_family


@pytest.fixture
def h4(tmp_path):
    path = tmp_path / "h4.txt"
    path.write_text(format_graph(make_family("thin_spider", 4)))
    return str(path)


@pytest.fixture
def k4(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(format_graph(make_family("clique", 4)))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_full_separation(capsys, h4):
    code, out, _ = run(capsys, ["compute", "--graph", h4, "--kind", "F"])
    assert code == 0
    payload = json.loads(out)
    assert payload["number"] == 6 and payload["feasible"]
    assert len(payload["witness"]) == 6


def test_compute_infeasible_reports_twins(capsys, k4):
    code, out, _ = run(capsys, ["compute", "--graph", k4, "--kind", "I"])
    assert code == 2
    payload = json.loads(out)
    assert not payload["feasible"]
    assert len(payload["closed_twins"]) == 6


def test_compute_bad_kind(capsys, h4):
    code, _, err = run(capsys, ["compute", "--graph", h4, "--kind", "Z"])
    assert code == 1 and "kind" in err


def test_compute_missing_file(capsys):
    code, _, err = run(capsys, ["compute", "--graph", "/nonexistent", "--kind", "L"])
    assert code == 1 and err


def test_compute_parse_error_has_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 0\n")
    code, _, err = run(capsys, ["compute", "--graph", str(bad), "--kind", "L"])
    assert code == 1 and "line 2" in err


def test_guard_flag_and_env(capsys, h4):
    code, _, err = run(capsys, ["compute", "--graph", h4, "--kind", "L", "--guard", "4"])
    assert code == 1 and "guard" in err
    code, _, err = run(capsys, ["compute", "--graph", h4, "--kind", "L", "--guard", "-3"])
    assert code == 1 and "--guard must be a nonnegative" in err


def test_usage_errors_exit_1(capsys, h4):
    for argv, message in (
        (["compute", "--graph", h4], "the following arguments are required: --kind"),
        (["compute", "--graph", h4, "--kind", "XY"], "argument --kind: invalid choice: 'XY'"),
        (["dump", "--graph", h4], "the following arguments are required: --kind"),
        (["frobnicate"], "argument verb: invalid choice: 'frobnicate'"),
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and not out and message in err, argv
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_one_process_runs_several_commands(capsys, h4):
    # the parser is built once per process and reused by every main() call
    first = [run(capsys, ["compute", "--graph", h4, "--kind", "LD"]),
             run(capsys, ["verify", "--graph", h4, "--theorems", "7"])]
    code, out, err = run(capsys, ["compute", "--graph", h4])
    assert code == 1 and not out and "required: --kind" in err
    again = [run(capsys, ["compute", "--graph", h4, "--kind", "LD"]),
             run(capsys, ["verify", "--graph", h4, "--theorems", "7"])]
    assert again == first
    assert [code for code, _, _ in first] == [0, 0]
    assert json.loads(first[0][1])["number"] == 4
    assert json.loads(first[1][1])["all_passed"]


def test_compute_refuses_an_oversized_header(capsys, tmp_path):
    huge = tmp_path / "huge.txt"
    huge.write_text("1000000 1\n0 1\n")
    start = time.perf_counter()
    code, out, err = run(capsys, ["compute", "--graph", str(huge), "--kind", "D"])
    assert time.perf_counter() - start < 1.0
    assert code == 1 and not out and "line 1" in err and "over the cap" in err


def test_verify_all_pass(capsys, h4):
    code, out, _ = run(capsys, ["verify", "--graph", h4])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"]
    assert all(r["passed"] for r in payload["reports"])


def test_verify_selected_and_unknown(capsys, h4):
    code, out, _ = run(capsys, ["verify", "--graph", h4, "--theorems", "7,cor2"])
    assert code == 0 and len(json.loads(out)["reports"]) == 2
    code, _, err = run(capsys, ["verify", "--graph", h4, "--theorems", "99"])
    assert code == 1


def test_verify_skips_under_twins(capsys, tmp_path):
    path = tmp_path / "star.txt"
    path.write_text(format_graph(make_family("star", 3)))
    code, out, _ = run(capsys, ["verify", "--graph", str(path), "--theorems", "7"])
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert report["passed"] and report["skipped"]


def test_families_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "h4.txt"
    code, out, _ = run(
        capsys, ["families", "--name", "thin_spider", "--k", "4", "--out", str(out_path)]
    )
    assert code == 0
    info = json.loads(out)
    assert info["n"] == 8 and info["m"] == 10
    assert out_path.read_text().splitlines()[0] == "8 10"
    code, _, err = run(capsys, ["families", "--name", "nope", "--k", "3"])
    assert code == 1


def test_families_refuses_graphs_over_the_size_cap(capsys):
    # a million-vertex clique or thick spider has about 10**12 edges: the
    # request is refused from k alone, before any graph is built
    for name in ("clique", "thick_spider"):
        start = time.perf_counter()
        code, out, err = run(capsys, ["families", "--name", name, "--k", "1000000"])
        assert time.perf_counter() - start < 1.0, name
        assert code == 1 and not out and "over the cap of 1000000" in err, name
    code, out, _ = run(capsys, ["families", "--name", "path", "--k", "100000"])
    assert code == 0 and json.loads(out)["m"] == 99999


def test_out_write_error_exits_1(capsys, tmp_path, h4):
    missing = str(tmp_path / "no-such-dir" / "x.txt")
    tc = tmp_path / "tc.txt"
    tc.write_text("3 2 2\n0\n1\n")
    for argv in (
        ["families", "--name", "path", "--k", "4", "--out", missing],
        ["reduce", "--testcover", str(tc), "--sep", "I", "--out", missing],
        ["dump", "--graph", h4, "--kind", "O", "--out", missing],
    ):
        code, out, err = run(capsys, argv)
        assert code == 1 and not out and "no-such-dir" in err, argv


def test_reduce_parse_error_has_line(capsys, tmp_path):
    tc = tmp_path / "tc.txt"
    tc.write_text("# two tests\n3 2 2\n0\n2 x\n")
    code, _, err = run(capsys, ["reduce", "--testcover", str(tc), "--sep", "I"])
    assert code == 1 and err.startswith("line 4: ")


def test_reduce_verify(capsys, tmp_path):
    tc = tmp_path / "tc.txt"
    tc.write_text("3 2 2\n0\n1\n")
    out_path = tmp_path / "gi.txt"
    code, out, _ = run(
        capsys,
        ["reduce", "--testcover", str(tc), "--sep", "I", "--out", str(out_path), "--verify"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 13 and payload["n"] == 23
    assert payload["forward_is_s_set"] and payload["forward_meets_lemma_bound"]
    assert payload["iff_agrees"] is True
    assert out_path.read_text().startswith("23 ")


def test_reduce_f_iff_runs_under_guard(capsys, tmp_path):
    tc = tmp_path / "tc.txt"
    tc.write_text("2 1 1\n0\n")
    code, out, _ = run(capsys, ["reduce", "--testcover", str(tc), "--sep", "F", "--verify"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 35 and payload["iff_agrees"] is True
    code, _, err = run(
        capsys, ["reduce", "--testcover", str(tc), "--sep", "F", "--verify", "--guard", "34"]
    )
    assert code == 1 and "over the exact-solver guard 34" in err
    code, out, _ = run(
        capsys, ["reduce", "--testcover", str(tc), "--sep", "F", "--verify", "--guard", "35"]
    )
    assert code == 0
    assert json.loads(out)["iff_agrees"] is True


def test_reduce_bad_instance(capsys, tmp_path):
    tc = tmp_path / "tc.txt"
    tc.write_text("2 1 1\n0 1\n")  # the pair 0,1 is never split
    code, _, err = run(capsys, ["reduce", "--testcover", str(tc), "--sep", "I"])
    assert code == 1


def test_reduce_refuses_graphs_over_the_size_cap(capsys, tmp_path):
    # the L graph holds budget + 1 copies of the items: budget 10**5 gives
    # 600 020 vertices and 1 600 032 edges, and budget 10**8 is refused as
    # fast, from the instance's counts before any graph is built
    tc = tmp_path / "tc.txt"
    for budget in (10**5, 10**8):
        tc.write_text("2 2 %d\n0\n1\n" % budget)
        start = time.perf_counter()
        code, out, err = run(capsys, ["reduce", "--testcover", str(tc), "--sep", "L"])
        assert time.perf_counter() - start < 1.0, budget
        assert code == 1 and not out and "over the cap of 1000000" in err, budget
    tc.write_text("2 2 1000\n0\n1\n")
    code, out, _ = run(capsys, ["reduce", "--testcover", str(tc), "--sep", "L"])
    assert code == 0 and json.loads(out)["n"] == 6 * 1001 + 14


def test_dump_clutter(capsys, tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text(format_graph(make_family("path", 4)))
    code, out, _ = run(capsys, ["dump", "--graph", str(path), "--kind", "O"])
    assert code == 0
    lines = out.strip().splitlines()
    n, e = map(int, lines[0].split())
    assert n == 4 and len(lines) == e + 1
    code, out_raw, _ = run(capsys, ["dump", "--graph", str(path), "--kind", "O", "--raw"])
    assert code == 0
    assert int(out_raw.splitlines()[0].split()[1]) == 6  # one edge per pair
    code, _, err = run(capsys, ["dump", "--graph", str(path)])
    assert code == 1


def test_spiders(capsys):
    code, out, _ = run(capsys, ["spiders", "--k", "5", "--check"])
    assert code == 0
    payload = json.loads(out)
    assert payload["closed_forms"]["thin"]["I"] == 6
    assert payload["check"]["passed"]
    code, _, _ = run(capsys, ["spiders", "--k", "3"])
    assert code == 1
    code, _, err = run(capsys, ["spiders", "--k", "5", "--check", "--guard", "9"])
    assert code == 1 and "over the exact-solver guard 9" in err


def test_spiders_k4_check_reports_failure(capsys, monkeypatch):
    # the real table agrees with the solver at the k=4 boundary
    code, out, _ = run(capsys, ["spiders", "--k", "4", "--check"])
    assert code == 0
    assert json.loads(out)["check"]["passed"]
    # a table with one entry off by one must be flagged with exit code 2
    real = theorems.spider_closed_forms

    def off_by_one(k):
        forms = real(k)
        forms["thick"]["LD"] += 1
        return forms

    monkeypatch.setattr(theorems, "spider_closed_forms", off_by_one)
    code, out, _ = run(capsys, ["spiders", "--k", "4", "--check"])
    assert code == 2
    check = json.loads(out)["check"]
    assert check["passed"] is False
    assert check["counterexample"]["item"] == "thick:LD"


def test_output_is_byte_stable(capsys, h4):
    _, out1, _ = run(capsys, ["compute", "--graph", h4, "--kind", "ITD"])
    _, out2, _ = run(capsys, ["compute", "--graph", h4, "--kind", "ITD"])
    assert out1 == out2
    _, v1, _ = run(capsys, ["verify", "--graph", h4])
    _, v2, _ = run(capsys, ["verify", "--graph", h4])
    assert v1 == v2
