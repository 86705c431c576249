"""Every public function, class and method in src/dwmix has a caller outside tests.

A name counts as used when it appears elsewhere in src/ or perfbench/ as an
identifier, or as a string literal that is exactly that identifier (the
benchmark's tracer looks layer functions up by name).  Comments and
docstrings do not count.  API that only the tests call is deleted, not kept.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dwmix"

# The spatial oracle behind criterion 4 of the acceptance suite: tests are its
# only callers by design.
ALLOWED = {"density_profile", "quadrant_probability", "integral"}


def _public_definitions(path):
    """(name, line) of module-level functions and classes and their methods."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            yield node.name, node.lineno
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield item.name, item.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno


def _identifier_counts(paths):
    counts = Counter()
    for path in paths:
        source = io.StringIO(path.read_text(encoding="utf-8"))
        for token in tokenize.generate_tokens(source.readline):
            if token.type == tokenize.NAME:
                counts[token.string] += 1
            elif token.type == tokenize.STRING:
                try:
                    value = ast.literal_eval(token.string)
                except (ValueError, SyntaxError):
                    continue
                if isinstance(value, str) and value.isidentifier():
                    counts[value] += 1
    return counts


def test_every_public_name_has_a_caller():
    sources = sorted(PACKAGE.rglob("*.py"))
    counts = _identifier_counts(sources + sorted((ROOT / "perfbench").rglob("*.py")))
    definitions = [
        (name, f"{path.relative_to(ROOT)}:{line}")
        for path in sources
        for name, line in _public_definitions(path)
        if not name.startswith("_")
    ]
    defined = Counter(name for name, _ in definitions)
    unused = [f"{name} ({where})" for name, where in definitions
              if counts[name] <= defined[name] and name not in ALLOWED]
    assert not unused, "public names with no caller in src/ or perfbench/: " + ", ".join(unused)
