"""Every name a module exports resolves and is listed once, every layer
and class the benchmark tracer looks up by name exists, the README's
library example prints what its comments say, the package and the
command load each module only when it is used, and removed names stay
gone."""

import contextlib
import importlib
import importlib.util
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["simpleloop", "simpleloop.words", "simpleloop.gf2"])
def test_all_names_resolve_once(module):
    mod = importlib.import_module(module)
    assert len(mod.__all__) == len(set(mod.__all__))
    for name in mod.__all__:
        assert hasattr(mod, name), name


def _load_tracing():
    # perfbench/tracing.py imports only the standard library; load it by
    # path so the package's own test run needs no harness on sys.path.
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_and_classes_resolve():
    # The benchmark's tracer wraps these by name; a missing one breaks its
    # traced runs.
    tracing = _load_tracing()
    for layer in tracing.LAYERS:
        importlib.import_module("%s.%s" % (tracing.PACKAGE, layer))
    for module, cls in tracing.CLASSES:
        mod = importlib.import_module("%s.%s" % (tracing.PACKAGE, module))
        assert isinstance(getattr(mod, cls, None), type), (module, cls)


def test_readme_library_example_prints_its_comments():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # Each print line's comment starts with the output, then an optional
    # " — " and an explanation.
    expected = [
        line.split("#", 1)[1].split(" — ")[0].strip()
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["True", "False", "11831 []"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == expected


def _run_fresh(code):
    """Run code in a fresh interpreter that imports simpleloop from this tree."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_package_import_loads_no_module():
    out = _run_fresh(
        "import sys, simpleloop\n"
        "print(sorted(m for m in sys.modules if m.startswith('simpleloop')))"
    )
    assert out.split() == ["['simpleloop']"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--depth", "1", "--kernel-len", "4"],
        ["lemma-check", "--depth", "1"],
        ["info"],
        ["search-kernel", "--kernel-len", "4"],
    ],
    ids=lambda argv: argv[0],
)
def test_command_loads_only_the_modules_it_uses(argv):
    # demos and realize serve torus-demo and realize only; gf2 serves the tests.
    out = _run_fresh(
        "import os, sys, simpleloop, simpleloop.cli\n"
        "code = simpleloop.cli.main(%r + ['--out', os.devnull])\n"
        "print(code, *sorted(m for m in sys.modules if m.startswith('simpleloop.')))"
        % argv
    )
    assert out.split() == [
        "0",
        "simpleloop.cli",
        "simpleloop.cover",
        "simpleloop.curves",
        "simpleloop.quotient",
        "simpleloop.words",
    ]


def test_lazy_exports_resolve_in_a_fresh_process():
    # Each name is read before its module is imported, and again after.
    out = _run_fresh(
        "import importlib, simpleloop\n"
        "listed = set(dir(simpleloop))\n"
        "missing = [n for n in simpleloop.__all__ if n not in listed]\n"
        "values = {n: getattr(simpleloop, n) for n in simpleloop.__all__}\n"
        "modules = [importlib.import_module('simpleloop.' + m) for m in\n"
        "    ('cover', 'curves', 'demos', 'gf2', 'quotient', 'realize', 'words')]\n"
        "wrong = [n for n, v in values.items() if getattr(simpleloop, n) is not v\n"
        "    or not any(getattr(m, n, None) is v for m in modules)]\n"
        "from simpleloop import *\n"
        "print(missing, wrong, simpleloop.gf2.__name__, 'gf2' in dir(simpleloop))\n"
        "try:\n"
        "    simpleloop.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out.splitlines() == [
        "[] [] simpleloop.gf2 True",
        "module 'simpleloop' has no attribute 'no_such_name'",
    ]


# Names removed from the package: the group law, the free product and the
# mod-2 abelianization, which no command called, the GF(2) linear algebra
# that only the tests use as their reference for H1 (import simpleloop.gf2),
# and the two pass-throughs to the cover: rho and its callers take a CoverCW.
REMOVED = (
    "representative",
    "mul",
    "inv",
    "free_product",
    "abelianization_mod2",
    "GF2Matrix",
    "QuotientMap",
    "kernel_basis",
    "rank",
    "rref",
    "GroupContext",
    "build_mod2_cover",
)


def test_removed_names_are_gone_in_a_fresh_process():
    out = _run_fresh(
        "import simpleloop\n"
        "listed = set(simpleloop.__all__) | set(dir(simpleloop))\n"
        "print(*[n for n in %r if n in listed])\n"
        "for name in %r:\n"
        "    try:\n"
        "        getattr(simpleloop, name)\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n" % (REMOVED, REMOVED)
    )
    assert out.splitlines() == [""] + [
        "module 'simpleloop' has no attribute %r" % name for name in REMOVED
    ]


@pytest.mark.parametrize(
    "argv, module",
    [(["torus-demo"], "demos"), (["realize", "--genus", "2"], "realize")],
    ids=["torus-demo", "realize"],
)
def test_commands_import_their_own_modules(argv, module):
    # Each package name has one meaning: once a command has loaded it,
    # simpleloop.realize is the module, and the recipe function is exported
    # under its own name.
    out = _run_fresh(
        "import os, sys, simpleloop.cli\n"
        "code = simpleloop.cli.main(%r + ['--out', os.devnull])\n"
        "module = sys.modules.get('simpleloop.%s')\n"
        "realize = simpleloop.realize\n"
        "print(code, module is not None, realize is sys.modules['simpleloop.realize'],\n"
        "      simpleloop.recipe_for_presentation is realize.recipe_for_presentation)"
        % (argv, module)
    )
    assert out.split() == ["0", "True", "True", "True"]
