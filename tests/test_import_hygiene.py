"""Import hygiene: what each entry point loads, checked in a fresh process.

SciPy is imported only where it is used: ``scipy.linalg`` /
``scipy.sparse`` by the electrical readout solvers, and nowhere else.
The Gaussian window ``erf`` behind every yield is an in-repo port of
SciPy's cephes ``erf`` (``tests/test_device_erf.py`` pins it bit for
bit), so the paper-figure, sweep, design-space and shard-worker paths
run with ``sys.modules["scipy"] = None``, which makes any stray scipy
import fail.  ``import repro`` loads no subpackage at all; its
re-exports resolve on first access.  The scalar reference
implementations live in ``tests/oracles/`` and no CLI path may reach
them, nor may the CLI still offer a ``--method`` switch between them
and the engines.  Each check runs in a new interpreter, because this
test process has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

#: Child environment: this checkout's sources, no store or fault plan.
ENV = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
ENV["PYTHONPATH"] = str(SRC)

#: The same, with the test oracles importable as the ``oracles`` package.
ORACLE_ENV = {
    **ENV,
    "PYTHONPATH": os.pathsep.join([str(SRC), str(Path(__file__).resolve().parent)]),
}


def _loaded_after(code: str, env: dict = ENV) -> list[str]:
    """Names in ``sys.modules`` after running ``code`` in a fresh process."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        "sys.stdout.write('\\n' + json.dumps(sorted(sys.modules)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.rsplit("\n", 1)[-1])


def _scipy(modules: list[str]) -> list[str]:
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


def _cli_loads(argv: list[str]) -> list[str]:
    return _loaded_after(
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    with contextlib.suppress(SystemExit):\n"
        f"        repro.cli.main({argv!r})\n"
    )


@pytest.mark.parametrize(
    "module", ["repro", "repro.cli", "repro.api", "repro.serve.client"]
)
def test_import_loads_no_scipy(module):
    assert _scipy(_loaded_after(f"import {module}")) == []


#: Makes every later ``import scipy...`` raise ``ImportError``.
NO_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


def _runs_without_scipy(code: str) -> list[str]:
    """Modules loaded by ``code`` run with SciPy unimportable."""
    loaded = _loaded_after(NO_SCIPY + code)
    assert "scipy" in loaded  # the None entry: the block was in place
    return [m for m in loaded if m.startswith("scipy.")]


def _cli_without_scipy(argv: list[str]) -> str:
    return (
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert repro.cli.main({argv!r}) == 0\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["fig7"],
        ["sweep", "--families", "TC,BGC", "--lengths", "6",
         "--metric", "yield,area,margins"],
        ["fig5"],
        ["fig6"],
        ["fig8"],
        ["evaluate", "BGC", "-M", "10"],
        ["optimize"],
        ["headline"],
        ["theorems"],
    ],
)
def test_figure_and_sweep_load_no_solver_scipy(argv):
    """The paper-figure and design-space paths import no SciPy at all."""
    assert _runs_without_scipy(_cli_without_scipy(argv)) == []


def test_shard_run_loads_no_scipy(tmp_path):
    """A shard worker evaluating sweep points imports no SciPy."""
    job = str(tmp_path / "job")
    grid = ["--families", "TC,BGC", "--lengths", "6", "--metric", "yield,area",
            "--shards", "1"]
    plan = ["shard", "plan", "sweep", job, *grid]
    code = (
        "import contextlib, glob, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert repro.cli.main({plan!r}) == 0\n"
        f"    [spec] = glob.glob({job!r} + '/shards/*.json')\n"
        "    assert repro.cli.main(['shard', 'run', spec]) == 0\n"
    )
    assert _runs_without_scipy(code) == []
    assert len(list((tmp_path / "job" / "results").glob("*[0-9a-f].json"))) == 1


def test_scipy_block_catches_a_solver_import():
    """The block bites: the distributed readout solver imports SciPy."""
    code = (
        "import numpy as np\n"
        "from repro.sim.readout import distributed_laplacian\n"
        "distributed_laplacian(np.ones((2, 2)), 1.0, 1.0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY + code],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "ModuleNotFoundError" in proc.stderr or "ImportError" in proc.stderr


@pytest.mark.parametrize("argv", [["--help"], ["info"]])
def test_light_commands_load_no_scipy(argv):
    assert _scipy(_cli_loads(argv)) == []


def test_shard_plan_and_merge_load_no_scipy(tmp_path):
    job = str(tmp_path / "job")
    grid = ["--families", "TC", "--lengths", "6", "--metric", "yield"]
    assert _scipy(_cli_loads(["shard", "plan", "sweep", job, *grid])) == []
    subprocess.run(
        [sys.executable, "-m", "repro", "shard", "launch", job, "--workers", "1"],
        env=ENV,
        check=True,
        capture_output=True,
        timeout=120,
    )
    assert _scipy(_cli_loads(["shard", "merge", job])) == []


def test_cli_loads_no_oracle():
    """Even with ``oracles`` importable, no CLI path imports it."""
    loaded = _loaded_after(
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    repro.cli.main(['simulate', 'BGC', '-M', '8', '--samples', '10'])\n"
        "    repro.cli.main(['margins', '--family', 'TC', '-M', '6'])\n"
        "    repro.cli.main(['readout', '--sizes', '4'])\n",
        env=ORACLE_ENV,
    )
    assert "repro.cli" in loaded
    assert [m for m in loaded if m == "oracles" or m.startswith("oracles.")] == []


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "BGC", "-M", "8"],
        ["memsim", "BGC", "-M", "8"],
        ["margins"],
        ["readout"],
    ],
)
def test_method_flag_rejected(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--method", "batched"],
        env=ENV,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --method batched" in proc.stderr


def test_bare_import_loads_no_subpackage():
    modules = _loaded_after("import repro")
    assert [m for m in modules if m.startswith("repro.")] == []


class TestLazyExports:
    """``tests/test_integration.py`` checks every ``__all__`` name resolves."""

    def test_exports_are_the_subpackage_objects(self):
        from repro.codes import make_code
        from repro.exp import run_sweep

        assert repro.make_code is make_code
        assert repro.run_sweep is run_sweep

    def test_dir_lists_exports_and_subpackages(self):
        listed = set(dir(repro))
        assert set(repro.__all__) <= listed
        for sub in ("codes", "core", "crossbar", "exp", "obs", "sim", "workload"):
            assert sub in listed
            assert getattr(repro, sub).__name__ == f"repro.{sub}"
        assert "_EXPORTS" not in listed

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(repro, "no_such_name")
        assert not hasattr(repro, "no_such_name")
