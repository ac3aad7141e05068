"""The package imports its layers on first use: ``import biorth`` loads none,
a command loads only the layers it runs and none of the standard library's
introspection machinery, and every public name is the object its defining
module holds."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import biorth

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CANONICAL = ["--a", "1", "--b", "1/2", "--c=-1/3", "--d=-1/4", "--q", "1/2"]

# Runs the code given as argv[1] (after silencing stdout, so that a command's
# payload is not printed), then prints the modules the process holds.
PROBE = """
import io, sys
sys.stdout = io.StringIO()
exec(sys.argv[1])
sys.stdout = sys.__stdout__
print(" ".join(sorted(sys.modules)))
"""


def loaded_by(code: str, prefix: str = "biorth") -> set[str]:
    """The modules whose names start with ``prefix`` that a fresh
    interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", PROBE, code], capture_output=True, text=True, env=env, check=True
    ).stdout
    return {name for name in out.split() if name.startswith(prefix)}


def test_import_loads_no_layer():
    assert loaded_by("import biorth") == {"biorth"}


@pytest.mark.parametrize(
    "code",
    [
        "import biorth",
        f"from biorth import cli\nassert cli.main({['stationary', *CANONICAL, '--L', '3']!r}) == 0",
        f"from biorth import cli\nassert cli.main({['ldu', *CANONICAL, '--n', '4']!r}) == 0",
        "from biorth import cli\nassert cli.main(['verify-all']) == 0",
    ],
    ids=["import", "stationary", "ldu", "verify-all"],
)
def test_no_command_loads_the_introspection_modules(code):
    # the records are plain classes; a site hook may preload typing, so
    # the count is against what an interpreter holds before any biorth code
    heavy = {"dataclasses", "inspect", "typing"}
    assert not (loaded_by(code, "") - loaded_by("pass", "")) & heavy


LAYERS = {info.name for info in pkgutil.iter_modules(biorth.__path__)}


@pytest.mark.parametrize(
    "argv, runs, unloaded",
    [
        (
            ["stationary", *CANONICAL, "--L", "3"],
            "asep",
            {"repmat", "_linalg", "wordfun", "ldu", "biortho", "suites"},
        ),
        (["ldu", *CANONICAL, "--n", "4"], "ldu", {"repmat", "asep", "wordfun", "powers", "biortho"}),
        (["rep", *CANONICAL, "--n", "4"], "repmat", {"bimoment", "_linalg", "asep", "wordfun", "ldu", "biortho"}),
        (["aw", *CANONICAL, "--n", "4"], "repmat", {"bimoment", "_linalg", "asep", "wordfun", "ldu", "biortho"}),
        (["bimoment", *CANONICAL, "--n", "4"], "bimoment", LAYERS - {"core", "reporting", "bimoment", "cli"}),
        (
            ["functional", *CANONICAL, "--max-len", "4", "--trials", "10"],
            "wordfun",
            {"_linalg", "repmat", "band", "asep", "ldu", "biortho"},
        ),
        (["polys", *CANONICAL, "--n", "4"], "biortho", {"asep", "wordfun", "repmat"}),
    ],
)
def test_a_command_loads_only_its_layers(argv, runs, unloaded):
    loaded = loaded_by(f"from biorth import cli\nassert cli.main({argv!r}) == 0")
    assert f"biorth.{runs}" in loaded
    assert not loaded & {f"biorth.{name}" for name in unloaded}


def test_a_json_command_does_not_load_csv():
    code = f"from biorth import cli\nassert cli.main({['stationary', *CANONICAL, '--L', '3']!r}) == 0"
    assert "csv" not in loaded_by(code, "csv")


def test_every_public_name_is_its_modules_object():
    for name in biorth.__all__:
        value = getattr(biorth, name)
        assert value is getattr(importlib.import_module(value.__module__), name)
    # read afresh at each access, never stored in the package
    assert not set(biorth.__all__) & set(vars(biorth))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(biorth, "no_such_name")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from biorth import *", namespace)
    assert set(biorth.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(biorth, name) for name in biorth.__all__)
