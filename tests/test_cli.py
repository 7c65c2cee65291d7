import json

import pytest

from cssgauge.cli import main


def run(args):
    return main(args)


def test_build_gcc(tmp_path):
    out = tmp_path / "o"
    assert run(["build", "--code", "gcc", "--L", "2", "--out", str(out)]) == 0
    data = json.loads((out / "gcc.json").read_text())
    assert data["n"] == 96
    assert data["parameters"]["k"] == 0
    assert (out / "gcc.dot").exists()


def test_build_bacon_shor_metadata(tmp_path):
    out = tmp_path / "o"
    assert run(["build", "--code", "bacon-shor", "--L", "3", "--out", str(out)]) == 0
    data = json.loads((out / "bacon-shor.json").read_text())
    assert data["parameters"]["k"] == 1


def test_build_invalid_length(tmp_path):
    assert run(["build", "--code", "gcc", "--L", "3", "--out", str(tmp_path)]) == 2


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["build", "--code", "nonsense", "--L", "2"])
    assert exc.value.code == 2


def test_build_toric_beyond_axis_names_is_usage_error(tmp_path):
    assert run(["build", "--code", "toric", "--D", "5", "--L", "2", "--k", "2",
                "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags", [
    ["--code", "toric", "--D", "4"],
    ["--code", "toric3d", "--k", "2", "--L", "2"],
], ids=["toric-D4", "toric3d-k2"])
def test_ungauge_rejects_flags_naming_another_model(tmp_path, capsys, flags):
    assert run(["ungauge", *flags, "--out", str(tmp_path)]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def _exit_code(args):
    """main's return value, or the code of an argparse rejection."""
    try:
        return run(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", [
    "build --code toric2d --L 2 --D 3 --k 2",
    "build --code gcc --L 2 --seed 5 --boundary open_y",
    "export --code bacon-shor --L 3 --what complex --k 3",
    "spt --code toric2d --L 4 --slab 1:3 --D 9 --k 4 --seed 1 --boundary periodic",
    "gauge --code xu-moore --L 3 --D 7 --boundary open_y --seed 3",
    "ungauge --code gcc --L 2 --partial z --boundary open_y",
    "ungauge --code toric2d --L 3 --hamiltonian Y",
    "verify --L 7 --all",
], ids=["build-toric2d", "build-gcc", "export-bacon-shor", "spt-toric2d", "gauge-xu-moore",
        "ungauge-gcc", "ungauge-toric2d", "verify"])
def test_flag_the_command_does_not_read_is_usage_error(tmp_path, command):
    assert _exit_code([*command.split(), "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_ungauge_gcc_z(tmp_path):
    out = tmp_path / "o"
    assert run(["ungauge", "--code", "gcc", "--hamiltonian", "Z", "--L", "2",
                "--pairs", "20", "--out", str(out)]) == 0
    report = json.loads((out / "ungauge-gcc.json").read_text())
    assert report["components"]["count"] == 6
    assert report["dim_check"] is True
    assert report["annihilated_generators"]["all_identity"] is True


def test_ungauge_gcc_y(tmp_path):
    out = tmp_path / "o"
    assert run(["ungauge", "--code", "gcc", "--hamiltonian", "Y", "--L", "2",
                "--pairs", "10", "--out", str(out)]) == 0
    report = json.loads((out / "ungauge-gcc.json").read_text())
    assert report["components"]["count"] == 3


def test_ungauge_color_partial(tmp_path):
    out = tmp_path / "o"
    assert run(["ungauge", "--code", "color2d", "--partial", "c", "--L", "3",
                "--pairs", "10", "--out", str(out)]) == 0
    report = json.loads((out / "ungauge-color2d-partial.json").read_text())
    assert report["components"]["count"] == 2


def test_gauge_xu_moore(tmp_path):
    out = tmp_path / "o"
    assert run(["gauge", "--code", "xu-moore", "--L", "3", "--full",
                "--out", str(out)]) == 0
    report = json.loads((out / "gauge-xu-moore.json").read_text())
    assert report["partial_gauge_matches_bacon_shor"] is True
    assert report["full_gauge"]["support_multiset_match"] is True


def test_spt_toric(tmp_path):
    out = tmp_path / "o"
    assert run(["spt", "--code", "toric2d", "--L", "4", "--slab", "1:3",
                "--out", str(out)]) == 0
    report = json.loads((out / "spt-toric2d.json").read_text())
    assert report["wall_terms"] == 16
    assert report["disentangler"] is not None
    assert report["wall_commutes"] is True


def test_spt_bad_slab(tmp_path):
    # Unparsable, inverted, empty, and selecting no qubit of the L=4 torus.
    for slab in ("oops", "3:1", "2:2", "100:101"):
        assert run(["spt", "--code", "toric2d", "--L", "4", "--slab", slab,
                    "--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_export_matrices(tmp_path):
    out = tmp_path / "o"
    assert run(["export", "--code", "toric2d", "--L", "3", "--what", "matrices",
                "--out", str(out)]) == 0
    dz = json.loads((out / "toric2d-dz.json").read_text())
    assert dz["rows"] == 18 and dz["cols"] == 9
    assert run(["export", "--code", "toric2d", "--L", "3", "--what", "lattice",
                "--out", str(out)]) == 0
    assert (out / "toric2d-lattice.json").exists()


def test_verify_fast(tmp_path):
    out = tmp_path / "o"
    assert run(["verify", "--pairs", "25", "--cases", "25",
                "--out", str(out)]) == 0
    results = json.loads((out / "verify.json").read_text())
    assert len(results) == 13
    assert all(r["passed"] for r in results)
