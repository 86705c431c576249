"""Every public function, class and method in src/dwmix has a caller outside
tests, and every dataclass field a reader.

A name counts as used when it appears elsewhere in src/ or perfbench/ as an
identifier, or as a string literal that is exactly that identifier (the
benchmark's tracer looks layer functions up by name).  A field counts as
read when src/ or perfbench/ reads an attribute of that name, directly or
through ``getattr`` with a literal name; the config sections, which are read
field by field through ``dataclasses.fields``, count as read throughout.
Comments and docstrings do not count.  API that only the tests call is
deleted, not kept, and so is a field that is written but never read.
"""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

from dwmix.config import _SECTIONS

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


def _dataclass_fields(path):
    """(class, field, line) of each field of the module's dataclasses."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and any(
            getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign):
                    yield node.name, item.target.id, item.lineno


def _attribute_reads(paths):
    """Attribute names read anywhere in the given files."""
    reads = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and isinstance(node.args[1], ast.Constant)):
                reads.add(node.args[1].value)
    return reads


def _sources():
    return sorted(PACKAGE.rglob("*.py")), sorted((ROOT / "perfbench").rglob("*.py"))


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
    sources, bench = _sources()
    counts = _identifier_counts(sources + bench)
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


def test_every_dataclass_field_is_read():
    sources, bench = _sources()
    reads = _attribute_reads(sources + bench)
    generic = {cls.__name__ for cls in _SECTIONS.values()}
    unread = [f"{cls}.{name} ({path.relative_to(ROOT)}:{line})"
              for path in sources
              for cls, name, line in _dataclass_fields(path)
              if name not in reads and cls not in generic]
    assert not unread, "dataclass fields nothing reads: " + ", ".join(unread)
