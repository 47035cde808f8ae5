import json

import pytest

from conftest import T4_POINTS, mk_instance
from diskdom import cli, gen_random, solve_weighted_unbounded
from diskdom.instance_io import instance_document
from diskdom.solution import Solution


@pytest.fixture
def t4_file(tmp_path):
    inst = mk_instance(T4_POINTS)
    path = tmp_path / "t4.json"
    path.write_text(instance_document(inst, {"name": "t4"}).to_json())
    return path


def gen(tmp_path, *extra):
    out = tmp_path / "inst.json"
    code = cli.main(["gen", "--n", "10", "--seed", "3", "--out", str(out), *extra])
    assert code == 0
    return out


def test_gen_is_deterministic(tmp_path):
    a = gen(tmp_path)
    first = a.read_bytes()
    b = gen(tmp_path)
    assert b.read_bytes() == first


def test_gen_families(tmp_path):
    for fam in ("circle", "ellipse", "perturbed-polygon", "figure1"):
        out = tmp_path / f"{fam}.json"
        assert cli.main(["gen", "--n", "9", "--family", fam, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["schema_version"] == 1


def test_solve_unweighted_summary(t4_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = cli.main(["solve", "--in", str(t4_file), "--out", str(out)])
    assert code == 0
    assert "size=2" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["solver"] == "greedy" and doc["verified"] is True
    assert cli.main(["verify", "--in", str(t4_file), "--solution", str(out)]) == 0


def test_solve_weighted_infeasible_k(t4_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    code = cli.main(
        ["solve", "--in", str(t4_file), "--weighted", "--k", "1", "--out", str(out)]
    )
    assert code == 1
    assert "infeasible" in capsys.readouterr().out
    assert not out.exists()


def test_solve_weighted_writes_dp_solution(t4_file, tmp_path):
    out = tmp_path / "sol.json"
    assert cli.main(
        ["solve", "--in", str(t4_file), "--weighted", "--k", "2", "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["solver"] == "dp" and doc["k"] == 2 and doc["size"] == 2


def test_verify_rejects_tampered_solution(t4_file, tmp_path, capsys):
    out = tmp_path / "sol.json"
    cli.main(["solve", "--in", str(t4_file), "--out", str(out)])
    doc = json.loads(out.read_text())
    doc["centers"], doc["size"] = [doc["centers"][0]], 1
    out.write_text(json.dumps(doc))
    assert cli.main(["verify", "--in", str(t4_file), "--solution", str(out)]) == 3
    assert "not verified" in capsys.readouterr().out


def test_oracle_compare_agrees(tmp_path, capsys):
    inst = gen(tmp_path, "--radius-law", "uniform(1.5,4.0)")
    code = cli.main(["oracle", "--in", str(inst), "--compare"])
    assert code == 0
    assert "solver agrees" in capsys.readouterr().out
    assert cli.main(["oracle", "--in", str(inst), "--weighted", "--compare"]) == 0


def test_oracle_reports_infeasible(tmp_path):
    inst = gen(tmp_path, "--radius-law", "uniform(0.01,0.02)")
    assert cli.main(["oracle", "--in", str(inst), "--k", "2"]) == 1
    assert cli.main(["oracle", "--in", str(inst), "--k", "2", "--compare"]) == 1


def test_oracle_mismatch_exit_code(t4_file, monkeypatch, capsys):
    fake = Solution(centers=(0, 1, 2), weight=3.0, size=3, mode="unweighted")
    monkeypatch.setattr(cli, "solve_unweighted", lambda inst, k_cap=None: fake)
    code = cli.main(["oracle", "--in", str(t4_file), "--compare"])
    assert code == 4
    assert "MISMATCH" in capsys.readouterr().out


def test_oracle_too_large(tmp_path):
    out = tmp_path / "big.json"
    assert cli.main(["gen", "--n", "23", "--seed", "1", "--out", str(out)]) == 0
    assert cli.main(["oracle", "--in", str(out)]) == 3


def test_usage_errors(t4_file, tmp_path):
    assert cli.main([]) == 2
    assert cli.main(["solve", "--in", str(t4_file)]) == 2  # missing --out
    assert cli.main(["frobnicate"]) == 2
    out = tmp_path / "x.json"
    assert cli.main(["solve", "--in", str(t4_file), "--k", "0", "--out", str(out)]) == 2
    assert cli.main(["oracle", "--in", str(t4_file), "--k", "0"]) == 2
    assert (
        cli.main(["gen", "--n", "5", "--family", "cube", "--out", str(out)]) == 2
    )


def test_io_errors(tmp_path):
    missing = tmp_path / "nope.json"
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--in", str(missing), "--out", str(out)]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["solve", "--in", str(bad), "--out", str(out)]) == 3
    assert cli.main(["gen", "--n", "0", "--out", str(out)]) == 3


def test_plot_writes_svg(t4_file, tmp_path):
    sol = tmp_path / "sol.json"
    cli.main(["solve", "--in", str(t4_file), "--out", str(sol)])
    pic = tmp_path / "t4.svg"
    assert cli.main(
        ["plot", "--in", str(t4_file), "--solution", str(sol), "--out", str(pic)]
    ) == 0
    body = pic.read_text()
    assert body.startswith("<?xml") and body.count('class="chosen"') == 2
    bare = tmp_path / "bare.svg"
    assert cli.main(["plot", "--in", str(t4_file), "--out", str(bare)]) == 0
    assert 'class="chosen"' not in bare.read_text()


def strip_millis(text):
    rows = [line.split(",") for line in text.strip().splitlines()]
    return [row[:3] + row[4:] for row in rows]


def test_bench_csv_shape_and_determinism(tmp_path):
    out = tmp_path / "bench.csv"
    argv = [
        "bench", "--sizes", "16,8", "--repeats", "2", "--k", "6",
        "--radius-law", "uniform(2.0,6.0)", "--csv", str(out),
    ]
    assert cli.main(argv) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()]
    assert rows[0] == ["n", "k", "solver", "millis", "size_or_weight"]
    body = rows[1:]
    assert [r[2] for r in body] == ["greedy", "dp", "greedy", "dp"]
    assert [r[0] for r in body] == ["8", "8", "16", "16"]  # sorted sizes
    assert all(float(r[3]) >= 0 for r in body)
    first = strip_millis(out.read_text())
    assert cli.main(argv) == 0
    assert strip_millis(out.read_text()) == first


def test_bench_reports_infeasible_sizes(tmp_path):
    # radii this small need far more than 6 disks at n=300
    out = tmp_path / "bench.csv"
    argv = [
        "bench", "--sizes", "300", "--repeats", "1", "--k", "6",
        "--radius-law", "uniform(0.5,1.0)", "--csv", str(out),
    ]
    assert cli.main(argv) == 0
    rows = strip_millis(out.read_text())
    assert rows == [
        ["n", "k", "solver", "size_or_weight"],
        ["300", "6", "greedy", "infeasible"],
        ["300", "6", "dp", "infeasible"],
    ]


def test_bench_solves_sizes_below_k(tmp_path):
    # at most 6 disks is every disk when n = 4, so the dp row still solves
    out = tmp_path / "bench.csv"
    argv = ["bench", "--sizes", "4,30", "--k", "6", "--repeats", "1", "--csv", str(out)]
    assert cli.main(argv) == 0
    rows = strip_millis(out.read_text())
    assert [r[:3] for r in rows[1:]] == [
        ["4", "6", "greedy"],
        ["4", "6", "dp"],
        ["30", "6", "greedy"],
        ["30", "6", "dp"],
    ]
    inst = gen_random(4, 4, "circle", "uniform(2.0,6.0)", "unit").to_instance()
    assert rows[2][3] == repr(solve_weighted_unbounded(inst).weight)


def test_bench_usage_errors(tmp_path):
    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--sizes", "8;16", "--csv", str(out)]) == 2
    assert cli.main(["bench", "--sizes", "8", "--repeats", "0", "--csv", str(out)]) == 2


def test_solver_invariant_error_exits_5(t4_file, tmp_path, monkeypatch, capsys):
    from diskdom.solution import SolverInvariantError

    def broken(*args, **kwargs):
        raise SolverInvariantError("no full candidate by level 4")

    monkeypatch.setattr(cli, "solve_unweighted", broken)
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--in", str(t4_file), "--out", str(out)]) == 5
    captured = capsys.readouterr()
    assert "no full candidate by level 4" in captured.err
    assert captured.out == ""
    assert not out.exists()
