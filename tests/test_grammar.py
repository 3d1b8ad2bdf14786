"""Every Python file of the repository parses under the Python 3.10 grammar.

``pyproject.toml`` asks for Python >= 3.10.7 and CI runs a 3.10 leg, but a
newer interpreter accepts newer syntax without a word.  So each ``.py``
file under ``src/``, ``tests/``, ``bench/``, ``demos/`` and ``tools/`` is
read with ``ast.parse(..., feature_version=(3, 10))``, which rejects, for
example, ``except*`` and PEP 695 type parameters.  This checks grammar
only: a call to a library function or argument added after 3.10 parses
and is not caught here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "tests", "bench", "demos", "tools")
    for path in (ROOT / folder).rglob("*.py")
)


def test_sources_found():
    assert Path("src/longsol/cli.py") in SOURCES
    assert Path("tests/test_grammar.py") in SOURCES
    assert Path("tools/ab_workers.py") in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=str)
def test_source_parses_under_310_grammar(path):
    text = (ROOT / path).read_text(encoding="utf-8")
    ast.parse(text, filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("text", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",
    "def first[T](xs: list[T]) -> T:\n    return xs[0]\n",
    "type Pair = tuple[int, int]\n",
])
def test_newer_grammar_is_rejected(text):
    with pytest.raises(SyntaxError):
        ast.parse(text, feature_version=(3, 10))
