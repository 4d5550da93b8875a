import json

import numpy as np
import pytest

from devport.cli import run


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


MAD_MARKET = {
    "schema": 1,
    "space": {"uniform": 3},
    "returns": [[-1.0, -1.0, 2.0], [-2.0, 1.0, 1.0]],
    "centered": True,
    "mu": [0.4, 0.6],
}


def test_forward_command(tmp_path, capsys):
    cfg = dict(MAD_MARKET, measure={"kind": "mad"}, delta=0.5)
    code, out = _run_json(capsys, ["forward", "--config", _write(tmp_path, "f.json", cfg)])
    assert code == 0
    assert out["unique"]
    assert out["value"] == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(out["x"], [0.5, 0.5], atol=1e-9)


def test_inverse_command(tmp_path, capsys):
    cfg = dict(
        MAD_MARKET, measure={"kind": "mad"}, x_m=[0.5, 0.5], delta_m=0.5
    )
    code, out = _run_json(capsys, ["inverse", "--config", _write(tmp_path, "i.json", cfg)])
    assert code == 0
    got = {tuple(np.round(v, 9)) for v in out["vertices"]}
    assert got == {
        (round(1 / 3, 9), round(2 / 3, 9)),
        (round(2 / 3, 9), round(1 / 3, 9)),
    }
    assert np.allclose(out["robust_mu"], [0.5, 0.5], atol=1e-9)


def test_selector_command(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "space": {"uniform": 3},
        "measure": {"kind": "cvar", "alpha": 0.05},
        "x": [-0.5, -0.5, 1.0],
        "selector": "robust",
    }
    code, out = _run_json(capsys, ["selector", "--config", _write(tmp_path, "s.json", cfg)])
    assert code == 0
    assert np.allclose(out["identifier"], [1.5, 1.5, 0.0], atol=1e-9)


def test_steiner_command_inline_vertices(capsys):
    code, out = _run_json(
        capsys,
        ["steiner", "--vertices", "[[1.5, 1.0, 0.5], [1.3333333333333333, 1.3333333333333333, 0.3333333333333333]]"],
    )
    assert code == 0
    assert np.allclose(out["point"], [17 / 12, 7 / 6, 5 / 12], atol=1e-9)
    assert np.allclose(out["standard_error"], 0.0, atol=1e-12)


def test_alloc_command(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "space": {"uniform": 3},
        "measure": {"kind": "mad"},
        "subportfolios": [[-1.0, 0.0, 1.0], [0.5, -0.5, 0.0]],
    }
    code, out = _run_json(capsys, ["alloc", "--config", _write(tmp_path, "a.json", cfg)])
    assert code == 0
    assert sum(out["contributions"]) == pytest.approx(out["total_risk"], abs=1e-8)


def test_coop_command(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "space": {"uniform": 3},
        "returns": [[-1.0, 1.0, 1.0], [-1.0, -1.0, 7.0]],
        "measures": [
            {"kind": "cvar", "alpha": 2 / 3},
            {"kind": "scale", "lambda": 0.5, "inner": {"kind": "mad"}},
        ],
    }
    code, out = _run_json(capsys, ["coop", "--config", _write(tmp_path, "c.json", cfg)])
    assert code == 0
    assert out["total_utility"] == pytest.approx(2 / 15, abs=1e-9)
    assert np.allclose(out["side_payments"], [-1 / 15, 1 / 15], atol=1e-9)
    assert np.allclose(out["final_shares"][0], np.full(3, 1 / 15), atol=1e-9)


def test_bl_command_with_override(tmp_path, capsys):
    cfg = {
        "schema": 1,
        "space": {"uniform": 3},
        "returns": [[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0]],
        "centered": True,
        "mu": [1 / 3, 2 / 3],
        "measure": {"kind": "cvar", "alpha": 0.05},
        "x_m": [0.2, 0.8],
        "delta_m": 0.4,
        "views": {"posterior_weights": [0.25, 0.25, 0.5]},
    }
    code, out = _run_json(capsys, ["bl", "--config", _write(tmp_path, "b.json", cfg)])
    assert code == 0
    assert out["unique"]
    assert np.allclose(out["mu_post"], [0.25, 0.75], atol=1e-9)
    assert np.allclose(out["x"], [0.4, 0.4], atol=1e-9)


def test_csv_market_roundtrip(tmp_path, capsys):
    csv = tmp_path / "scen.csv"
    # One row per scenario, one column per asset; means (0.4, 0.6).
    csv.write_text("a1,a2\n-0.6,-1.4\n-0.6,1.6\n2.4,1.6\n")
    cfg = {
        "schema": 1,
        "returns": {"csv": str(csv)},
        "measure": {"kind": "mad"},
        "delta": 0.5,
    }
    code, out = _run_json(capsys, ["forward", "--config", _write(tmp_path, "csv.json", cfg)])
    assert code == 0
    assert np.allclose(out["x"], [0.5, 0.5], atol=1e-9)


def test_validation_error_exit_code(tmp_path, capsys):
    cfg = dict(MAD_MARKET, measure={"kind": "stddev"}, delta=0.5)
    code, out = _run_json(capsys, ["forward", "--config", _write(tmp_path, "bad.json", cfg)])
    assert code == 1
    assert out["error"]["type"] == "Unsupported"


SIMPLEX_3D = "[[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]"


BAD_INPUT_BASE = {
    "schema": 1,
    "space": {"uniform": 3},
    "measure": {"kind": "mad"},
    "x": [1.0, 0.0, 2.0],
    "subportfolios": [[-1.0, 0.0, 1.0], [0.5, -0.5, 0.0]],
}


@pytest.mark.parametrize(
    "command, changes, flags",
    [
        ("selector", {"measure": {"kind": "cvar", "alpha": "abc"}}, []),
        ("selector", {"measure": {"kind": "max", "parts": 5}}, []),
        ("selector", {"measure": {"kind": "mix", "parts": []}}, []),
        ("steiner", None, ["--samples", "-3"]),
        ("steiner", None, ["--seed", "-1"]),
        ("steiner", None, ["--samples", "1"]),
        ("selector", {"x": "abc"}, []),
        ("selector", {"x": [1.0, None, 2.0]}, []),
        ("selector", {"space": {"uniform": "abc"}}, []),
        ("selector", {"space": {"uniform": 2.5}}, []),
        ("selector", {"space": 5}, []),
        ("selector", {"samples": "many"}, []),
        ("alloc", {"subportfolios": [[-1.0, 0.0, 1.0], [0.5]]}, []),
        ("alloc", {"subportfolios": [1.0, 0.0, 1.0]}, []),
    ],
    ids=[
        "alpha-abc", "parts-5", "mix-no-parts", "samples-neg", "seed-neg", "samples-1",
        "x-abc", "x-null-entry", "uniform-abc", "uniform-fraction", "space-5",
        "samples-word", "subportfolios-ragged", "subportfolios-flat",
    ],
)
def test_bad_input_is_validation_error(tmp_path, capsys, command, changes, flags):
    if changes is None:
        argv = [command, "--vertices", SIMPLEX_3D, *flags]
    else:
        cfg = dict(BAD_INPUT_BASE, **changes)
        argv = [command, "--config", _write(tmp_path, "bad.json", cfg)]
    code, out = _run_json(capsys, argv)
    assert code == 1
    assert out["error"]["type"] == "ValidationError"


def test_missing_key_is_validation_error(tmp_path, capsys):
    cfg = dict(MAD_MARKET, delta=0.5)  # no measure
    code, out = _run_json(capsys, ["forward", "--config", _write(tmp_path, "mk.json", cfg)])
    assert code == 1
    assert out["error"]["type"] == "ValidationError"


def test_bad_schema_version(tmp_path, capsys):
    cfg = dict(MAD_MARKET, schema=99, measure={"kind": "mad"}, delta=0.5)
    code, out = _run_json(capsys, ["forward", "--config", _write(tmp_path, "v.json", cfg)])
    assert code == 1


def test_float_formatting_is_stable(tmp_path, capsys):
    cfg = dict(MAD_MARKET, measure={"kind": "mad"}, delta=0.5)
    path = _write(tmp_path, "f.json", cfg)
    code1 = run(["forward", "--config", path])
    out1 = capsys.readouterr().out
    code2 = run(["forward", "--config", path])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_paper_examples_all_pass(capsys):
    code = run(["paper-examples"])
    captured = capsys.readouterr()
    assert code == 0
    table = json.loads(captured.out)
    assert table["failures"] == 0
    assert len(table["cases"]) >= 18
    assert all(row["pass"] for row in table["cases"])
    # One status line per case on stderr.
    lines = [l for l in captured.err.splitlines() if l.strip()]
    assert len(lines) == len(table["cases"])
    assert all(l.startswith("PASS") for l in lines)
