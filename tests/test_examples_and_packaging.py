"""Smoke tests: the example scripts run, and the package metadata is sane.

The examples are part of the public deliverable; running them (with small
arguments) in a subprocess guards against bit-rot in the public API they
exercise.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = REPO_ROOT / "examples"


def _run(script: str, *args: str, timeout: int = 240) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=str(REPO_ROOT),
    )


class TestExamples:
    def test_quickstart_runs(self):
        proc = _run("quickstart.py", "512", "3")
        assert proc.returncode == 0, proc.stderr
        assert "Algorithm 1" in proc.stdout
        assert "max tx/node" in proc.stdout

    def test_sensor_field_runs(self):
        proc = _run("sensor_field_broadcast.py", "200", "5")
        assert proc.returncode == 0, proc.stderr
        assert "Decay" in proc.stdout
        assert "mean tx/sensor" in proc.stdout

    def test_tradeoff_runs(self):
        proc = _run("energy_time_tradeoff.py", "8", "8", "2")
        assert proc.returncode == 0, proc.stderr
        assert "lambda" in proc.stdout
        assert "tx/node" in proc.stdout

    def test_dynamic_gossip_runs(self):
        proc = _run("dynamic_gossip.py", "64", "4")
        assert proc.returncode == 0, proc.stderr
        assert "rumour coverage" in proc.stdout

    def test_broadcast_under_churn_runs(self):
        proc = _run("broadcast_under_churn.py", "96", "4")
        assert proc.returncode == 0, proc.stderr
        assert "work wasted" in proc.stdout
        assert "churn 25%" in proc.stdout


#: Builds both geometric families, measures a diameter and runs E13 with a
#: meta-path hook that makes every scipy import fail.
_GEOMETRIC_WITH_SCIPY_BLOCKED = """
class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split('.')[0] == 'scipy':
            raise ImportError(f'{name} is blocked')

sys.meta_path.insert(0, _BlockScipy())
from repro.cli import main
from repro.graphs import geometric_digraph, heterogeneous_geometric_digraph
from repro.graphs.properties import diameter_estimate

assert diameter_estimate(geometric_digraph(300, 0.2, rng=1)) > 1
heterogeneous_geometric_digraph(300, 0.1, 0.2, rng=2)
assert main(['run', 'E13', '--scale', 'quick', '--no-cache']) == 0
"""


class TestPackaging:
    def test_version_exposed(self):
        import repro

        assert repro.__version__
        parts = repro.__version__.split(".")
        assert len(parts) >= 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "list"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "E1" in proc.stdout

    @pytest.mark.parametrize(
        "code",
        ["import repro.cli", "import repro.scenarios", _GEOMETRIC_WITH_SCIPY_BLOCKED],
        ids=["repro.cli", "repro.scenarios", "geometric-e13-scipy-blocked"],
    )
    def test_import_leaves_scipy_unloaded(self, code, tmp_path):
        """Nothing outside the tests imports scipy: the CLI and scenario
        imports leave it unloaded, and both geometric families,
        ``diameter_estimate`` and a full E13 run work with it blocked."""
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                f"import sys\n{code}\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True,
            text=True,
            timeout=240,
            # Run away from the repo, so nothing is written into it.
            cwd=str(tmp_path),
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(
                    [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
                ),
            },
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    @pytest.mark.parametrize(
        "group, package",
        [
            ("dependencies", "numpy"),
            # The cKDTree reference of the geometric builder tests.
            ("test", "scipy"),
            ("test", "pytest"),
            # Imported at module level by the property-based and store tests.
            ("test", "hypothesis"),
            # Imported by the RadioNetwork interop tests.
            ("test", "networkx"),
        ],
    )
    def test_dependency_declared(self, group, package):
        """What the code and the tier-1 tests import is declared, so
        ``pip install -e ".[test]"`` is enough to run the suite."""
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
        requirements = (
            project["dependencies"]
            if group == "dependencies"
            else project["optional-dependencies"][group]
        )
        names = {re.split(r"[\s<>=!~;\[]", req, maxsplit=1)[0].lower() for req in requirements}
        assert package in names

    def test_public_packages_importable(self):
        import repro.analysis
        import repro.baselines
        import repro.core
        import repro.experiments
        import repro.graphs
        import repro.radio

        assert repro.radio.RadioNetwork is not None
        assert repro.core.EnergyEfficientBroadcast is not None

    def test_quickstart_docstring_example(self):
        """The doctest-style snippet in repro.__init__ must stay true."""
        from repro.core import EnergyEfficientBroadcast
        from repro.graphs import random_digraph
        from repro.radio import run_protocol

        net = random_digraph(512, 0.05, rng=1)
        result = run_protocol(net, EnergyEfficientBroadcast(p=0.05), rng=2)
        assert result.completed and result.energy.max_per_node <= 1
