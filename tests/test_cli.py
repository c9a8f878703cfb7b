import json

import numpy as np
import pytest

from curlstokes import solver
from curlstokes.cli import EXIT_MEMORY, main

CSV_HEADER = ("level,h,dofs_u,dofs_p,err_u_l2,err_u_curl,err_u_hash,err_gpar,"
              "err_gcurl,err_p_l2,err_p_h1,eoc_u_l2,eoc_u_curl,eoc_u_hash,"
              "eoc_gpar,eoc_gcurl,eoc_p_l2,eoc_p_h1")


def test_convergence_linear_case(tmp_path):
    out = tmp_path / "run"
    code = main(["convergence", "--case", "linear", "--order", "1",
                 "--levels", "2", "--cw", "10", "--out", str(out)])
    assert code == 0
    csv = (out / "errors.csv").read_text().splitlines()
    assert csv[0] == CSV_HEADER
    assert len(csv) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert report["config"]["case"] == "linear"
    assert set(report["config"]) == {"command", "case", "order", "levels", "C_w",
                                     "base_n", "jitter_seed"}
    for level in report["levels"]:
        assert level["errors"]["err_u_l2"] <= 1e-8
        assert level["errors"]["err_p_l2"] <= 1e-8
    for name in ("convergence_velocity.svg", "convergence_boundary.svg",
                 "convergence_pressure.svg"):
        text = (out / name).read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")


def test_convergence_deterministic_outputs(tmp_path):
    args = ["convergence", "--case", "star", "--order", "1", "--levels", "2",
            "--cw", "10", "--jitter", "7"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("errors.csv", "report.json", "convergence_velocity.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_convergence_star_rates_in_report(tmp_path):
    out = tmp_path / "star"
    code = main(["convergence", "--case", "star", "--order", "1",
                 "--levels", "3", "--base-n", "4", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.7 <= report["eoc"]["err_u_l2"][-1] <= 1.3


def test_convergence_rejects_single_level(tmp_path):
    code = main(["convergence", "--case", "star", "--levels", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize("cw", ["nan", "inf"])
def test_convergence_rejects_non_finite_penalty(tmp_path, capsys, cw):
    code = main(["convergence", "--case", "star", "--levels", "2", "--cw", cw,
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "penalty constant" in capsys.readouterr().err


def test_unknown_case_exits_with_config_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--case", "vortex", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_counterexample_command(tmp_path):
    out = tmp_path / "ce"
    code = main(["counterexample", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "counterexample.json").read_text())
    assert data["essential"]["kernel_dimension"] == 2
    assert data["essential"]["witness_residual"] <= 1e-12
    assert data["essential"]["witness_in_span_residual"] <= 1e-10
    assert data["essential"]["solver_flags_singular"] is True
    assert data["essential_refined"]["kernel_dimension"] >= 1
    assert data["nitsche"]["kernel_dimension"] == 0
    wp = np.array(data["essential"]["witness_pressure"])
    assert np.allclose(wp, [5 / 6, -1 / 6, -1 / 6, -1 / 6])


def test_harmonic_command(tmp_path):
    out = tmp_path / "h"
    code = main(["harmonic", "--case", "hole", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "harmonic.json").read_text())
    assert data["dimension"] == 1
    assert data["betti_number"] == 1
    assert data["curl_over_mass_ratio"] <= 1e-10
    csv = (out / "harmonic.csv").read_text().splitlines()
    assert csv[0] == "x,y,hx,hy"
    assert len(csv) == 1 + 16  # one sample per triangle on the n=3 hole mesh


def test_harmonic_square_has_dimension_zero(tmp_path):
    out = tmp_path / "h0"
    code = main(["harmonic", "--case", "star", "--n", "2", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "harmonic.json").read_text())
    assert data["dimension"] == 0
    assert data["betti_number"] == 0


def test_probe_command(tmp_path):
    out = tmp_path / "p"
    code = main(["probe", "--case", "star", "--levels", "3", "--out", str(out)])
    assert code == 0
    data = json.loads((out / "probe.json").read_text())
    levels = data["levels"]
    assert len(levels) == 3
    for row in levels:
        assert row["C_par"] > 0
        assert row["recommended_C_w"] == pytest.approx(2 * row["C_n"] ** 2)
    cns = [row["C_n"] for row in levels]
    assert max(cns[:2]) / min(cns[:2]) <= 1.25
    betas = [row["beta_over_h"] for row in levels]
    assert max(betas) / min(betas) <= 3.0


def test_probe_deterministic(tmp_path):
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    main(["probe", "--case", "star", "--levels", "2", "--out", str(out1)])
    main(["probe", "--case", "star", "--levels", "2", "--out", str(out2)])
    assert (out1 / "probe.json").read_bytes() == (out2 / "probe.json").read_bytes()


@pytest.mark.parametrize("levels", ["0", "-2"])
def test_probe_rejects_fewer_than_one_level(tmp_path, capsys, levels):
    code = main(["probe", "--case", "star", "--levels", levels,
                 "--out", str(tmp_path / "p")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: a probe needs")


@pytest.mark.parametrize("error", [SystemError("Can't expand MemType 1: jcol 1320"),
                                   MemoryError("Unable to allocate 2.0 GiB")])
def test_out_of_memory_exits_cleanly(tmp_path, monkeypatch, capsys, error):
    def splu(matrix):
        raise error

    monkeypatch.setattr(solver, "splu", splu)
    code = main(["convergence", "--case", "star", "--levels", "2", "--base-n", "16",
                 "--out", str(tmp_path / "oom")])
    assert code == EXIT_MEMORY
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1
