"""The docs' module lists name exactly the package's modules."""

from __future__ import annotations

import re
from pathlib import Path

import ellipsoid

ROOT = Path(__file__).resolve().parents[1]


def package_modules() -> list[str]:
    return sorted(p.stem for p in (ROOT / "src" / "ellipsoid").glob("*.py") if p.stem != "__init__")


def test_readme_layout_table_names_every_module_once():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"^\| `ellipsoid\.(\w+)` \|", layout, re.MULTILINE)
    assert sorted(named) == package_modules()


def test_package_docstring_layout_names_every_module_once():
    named = re.findall(r"^- :mod:`ellipsoid\.(\w+)`", ellipsoid.__doc__, re.MULTILINE)
    assert sorted(named) == package_modules()
