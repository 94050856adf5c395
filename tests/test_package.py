"""The package surface: what ``from rrclosure import *`` exports."""

import ast
import os
import subprocess
import sys

import pytest

import rrclosure


def test_star_import_binds_every_name_in_all():
    script = (
        "from rrclosure import *\n"
        "import rrclosure\n"
        "missing = [n for n in rrclosure.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
    )
    src = os.path.dirname(os.path.dirname(rrclosure.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_kernel_backend_is_pure():
    # the benchmark records this name with every run
    assert rrclosure.KERNEL_BACKEND == "pure"


@pytest.mark.filterwarnings("ignore::UserWarning")  # setuptools calls its table beta
def test_version_matches_the_project_metadata():
    # the cache key carries the version: pyproject.toml reads it from the package
    from setuptools.config.pyprojecttoml import read_configuration

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    config = read_configuration(os.path.join(root, "pyproject.toml"))
    assert config["project"]["version"] == rrclosure.__version__


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the records are NamedTuples: the dataclasses module pulls inspect, ast,
    # dis and tokenize into every start of the command
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import rrclosure.cli\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = os.path.dirname(os.path.dirname(rrclosure.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = ast.literal_eval(proc.stdout)
    assert "rrclosure.cli" in added
    assert "dataclasses" not in added
    assert "inspect" not in added


def test_the_kernels_import_nothing_from_the_package():
    # the kernels know no term order: the ring's order reaches a generator
    # list only where it is shown (ideals._monomial_basis), so nothing of the
    # package, orders included, may be imported into them
    path = os.path.join(os.path.dirname(rrclosure.__file__), "_kernels.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert imported  # the walk sees the standard-library imports
    assert not [m for m in imported if m.startswith((".", "rrclosure"))], imported
