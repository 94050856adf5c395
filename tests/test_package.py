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


@pytest.mark.parametrize("name", ["postulation_with_reduction", "reduction_number",
                                  "RMaxExceededError"])
def test_removed_names_are_gone(name):
    # closure() is the one path to pn(I; x) and the chain index
    import rrclosure.errors

    assert name not in rrclosure.__all__
    assert not hasattr(rrclosure, name)
    assert not hasattr(rrclosure.errors, name)


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


def test_the_engine_checks_the_packed_width_in_one_step():
    # every product term of the Groebner engine comes from one
    # multiply-accumulate step, so the guard-bit check lives there alone
    path = os.path.join(os.path.dirname(rrclosure.__file__), "ideals.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    sites = []
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            sites.extend(fn.name for node in ast.walk(fn)
                         if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                         and getattr(node.exc.func, "id", None) == "_overflow")
    assert sites == ["_add_multiple"]


def test_a_closure_round_has_one_timer_and_one_chain_term_step():
    # every phase of closure() is timed by one helper, and the chain colon
    # and the stabilization check call one step, monomial or not
    path = os.path.join(os.path.dirname(rrclosure.__file__), "closure.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    readers = set()

    def visit(node, function):
        if isinstance(node, ast.Attribute) and node.attr == "perf_counter":
            readers.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, child.name if isinstance(child, ast.FunctionDef) else function)

    visit(tree, None)
    assert len(readers) == 1, readers
    (closure,) = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                  and fn.name == "closure"]
    names = [node.id for node in ast.walk(closure) if isinstance(node, ast.Name)]
    assert names.count("chain_term") == 1
    assert names.count("_monomial_chain_term") == 1
