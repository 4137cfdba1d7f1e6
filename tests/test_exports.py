"""Every name a module exports resolves and is listed once, every layer
and class the benchmark tracer looks up by name exists, and the README's
library example prints what its comments say."""

import contextlib
import importlib
import importlib.util
import io
import re
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
