"""Every name ``screwgrasp`` exports has a user outside the tests.

A name used only by tests belongs in the tests, not in the package: each
exported name must appear in README.md or on a line of ``src/screwgrasp/``
(``__init__.py`` aside) other than the one that defines it.
"""

import inspect
import re
from pathlib import Path

import screwgrasp

PACKAGE = Path(screwgrasp.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def exported_names() -> list[str]:
    return sorted(name for name, value in vars(screwgrasp).items()
                  if not name.startswith("_") and not inspect.ismodule(value))


def is_used(name: str, lines: list[str], readme: str) -> bool:
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(?:(?:def|class)\s+{re.escape(name)}\b|{re.escape(name)}\s*[:=])")
    return bool(word.search(readme)) or any(word.search(line) and not definition.match(line) for line in lines)


def test_every_export_has_a_user_outside_the_tests():
    lines = [line for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for line in path.read_text(encoding="utf-8").splitlines()]
    readme = README.read_text(encoding="utf-8")
    names = exported_names()
    assert "local_metric" in names and "ScrewGraspError" in names
    assert [name for name in names if not is_used(name, lines, readme)] == []
