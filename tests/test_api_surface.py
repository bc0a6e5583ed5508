"""The public surface stays in step with the code: every exported name
resolves, and the README's library example runs as written."""

import importlib
import os
import re

import pytest

_README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
_MODULES = (
    "quintic_moduli",
    "quintic_moduli.bigmath_kernel",
    "quintic_moduli.modular_core",
    "quintic_moduli.quintic_ladder",
    "quintic_moduli.certify",
    "quintic_moduli.report",
    "quintic_moduli.cli",
)


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing, "%s.__all__ names undefined %s" % (name, missing)
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_readme_library_example_runs():
    with open(_README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(compile(block, "README.md#library", "exec"), ns)
    assert [s.level for s in ns["trace"].steps] == [1, 2, 3]
    assert 0 < ns["R"] < 1
