import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_outputs)

CONFIG = {
    "version": 1,
    "master_seed": 11,
    "stable": {"alpha": 1.5, "c_plus": 0.5, "c_minus": 0.5},
    "truncation": {"big_cutoff_K": 1.0, "small_cutoff_eps": 0.05},
    "domain": {"horizon_T": 1.0, "length_L": 1.0},
    "grid": {"n_t": 16, "n_x": 8},
    "coefficients": {
        "drift": {"family": "affine", "params": {"a": 0.0, "b": 0.2}},
        "noise_coef": {"family": "clipped_linear", "params": {"slope": 0.4, "cap": 2.0}},
    },
    "initial": {"family": "sine_mode", "params": {"mode": 1, "amplitude": 1.0}},
    "experiments": {"stopping_law": {"K": 1.0, "n_paths": 50}},
}


@pytest.fixture
def checkout(tmp_path):
    """A checkout holding only this repository's ``src/``, so that the one
    ``--config`` is the only config compared."""
    path = tmp_path / "checkout"
    path.mkdir()
    (path / "src").symlink_to(ROOT / "src")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    return ["--before", str(path), "--after", str(path), "--config", str(config)]


def test_a_checkout_matches_itself(checkout, capsys):
    assert compare_outputs.main(checkout) == 0
    assert "0 differences" in capsys.readouterr().err


def test_a_tampered_output_is_named_with_its_largest_difference(checkout, monkeypatch, capsys):
    run = compare_outputs.run

    def tampered(path, command, config, out):
        code = run(path, command, config, out)
        if out.parts[-3] == "after" and command == "verify":
            report = out / "reports" / "stopping_law.json"
            payload = json.loads(report.read_text())
            payload["n_paths"] += 3
            report.write_text(json.dumps(payload))
        return code

    monkeypatch.setattr(compare_outputs, "run", tampered)
    assert compare_outputs.main(checkout) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "config.json verify: reports/stopping_law.json differs "
        "(largest numeric difference 3.000e+00)"
    ]



@pytest.mark.parametrize(
    "suffix, before, after, shown",
    [
        (".json", '{"inputs_hash": "0000", "n": 1}', '{"inputs_hash": "ffff", "n": 2}',
         "inputs_hash: '0000' -> 'ffff'"),
        (".json", '{"a": 1, "b": {"c": [1, "x"]}}', '{"a": 2, "b": {"c": [1, "y"]}}',
         "b.c[1]: 'x' -> 'y'"),
        (".json", '{"a": [1, 2]}', '{"a": [1, 2, 3]}', "layouts differ at a"),
        (".json", '{"a": 1}', '{"b": 1}', "layouts differ at the root"),
        (".csv", "i,v\n0,1.0\n", "i,w\n0,1.0\n", "[0][1]: 'v' -> 'w'"),
    ],
)
def test_the_first_differing_non_number_is_placed(tmp_path, suffix, before, after, shown):
    paths = tmp_path / f"before{suffix}", tmp_path / f"after{suffix}"
    for path, text in zip(paths, (before, after)):
        path.write_text(text)
    assert compare_outputs.largest_difference(*paths) == f" ({shown})"
