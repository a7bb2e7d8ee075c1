"""The library example in README.md runs against the current API."""

import re
from pathlib import Path

import uqshift

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README has no python block under '## Library use'"
    exec(compile(match.group(1), str(README), "exec"), {})
    assert capsys.readouterr().out.strip()


def test_package_root_exports_the_example_names():
    section = README.read_text().split("## Library use", 1)[1]
    imported = re.search(r"from uqshift import \((.*?)\)", section, re.S)
    assert imported, "README's example has no 'from uqshift import (...)'"
    names = [name.strip() for name in imported.group(1).split(",") if name.strip()]
    assert sorted(uqshift.__all__) == sorted(names)
