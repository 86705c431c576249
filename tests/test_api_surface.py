"""Every public function, class and method in src/dwmix has a caller outside
tests, every record field a reader, and every optional parameter a caller
that sets it.

A name counts as used when it appears elsewhere in src/ or perfbench/ as an
identifier, or as a string literal that is exactly that identifier (the
benchmark's tracer looks layer functions up by name).  A field counts as
read when src/ or perfbench/ reads an attribute of that name, directly or
through ``getattr`` with a literal name.  Comments and docstrings do not count.  API that only the tests call is
deleted, not kept, and so is a field that is written but never read.  A
defaulted parameter that no call in src/ or perfbench/ passes, by position or
by keyword, is a constant in disguise: it becomes one.
"""

import ast
import importlib
import io
import pkgutil
import tokenize
from collections import Counter
from pathlib import Path

import dwmix
from dwmix.errors import Record

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dwmix"


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


def _records(path):
    """The module's classes that name ``Record`` as a base."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", None) == "Record" for base in node.bases):
            yield node


def _record_fields(path):
    """(class, field, line) of each field of the module's records."""
    for node in _records(path):
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
              if counts[name] <= defined[name]]
    assert not unused, "public names with no caller in src/ or perfbench/: " + ", ".join(unused)


def test_every_dataclass_field_is_read():
    """A field counts as read when src/ or perfbench/ reads any attribute of
    its name, whatever the object.  So a written field whose name another
    record's field shares passes unread, as ``GroundState.gap`` did beside
    the sweeps' ``gap`` and ``FidelitySurface.reference`` beside
    ``SweepSpec.reference`` (both since deleted).  Such fields are found by
    reading the code, not here."""
    sources, bench = _sources()
    reads = _attribute_reads(sources + bench)
    unread = [f"{cls}.{name} ({path.relative_to(ROOT)}:{line})"
              for path in sources
              for cls, name, line in _record_fields(path)
              if name not in reads]
    assert not unread, "record fields nothing reads: " + ", ".join(unread)


def _defaulted_parameters(path):
    """(callee, parameter, position, line) of each defaulted parameter of the
    module's public functions and of its classes' public methods and
    ``__init__``.  ``callee`` is the function's name, or ``Class.__init__``;
    ``position`` counts a call's positional arguments, leaving out a method's
    ``self`` or ``cls``, and is None for a keyword-only parameter."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            functions = [(f"{node.name}.__init__" if item.name == "__init__" else item.name,
                          item, 1)
                         for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and (item.name == "__init__" or not item.name.startswith("_"))]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions = [(node.name, node, 0)] if not node.name.startswith("_") else []
        else:
            continue
        for callee, function, bound in functions:
            args = function.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i in range(first, len(positional)):
                yield callee, positional[i].arg, i - bound, function.lineno
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield callee, arg.arg, None, function.lineno


def _constructors(paths):
    """Class name -> ``Owner.__init__`` of the nearest class in its line of
    bases, itself included, that defines ``__init__``."""
    classes = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (
                    [getattr(b, "id", None) for b in node.bases],
                    any(getattr(i, "name", None) == "__init__" for i in node.body),
                )

    def owner(name):
        if name not in classes:
            return None
        bases, has_init = classes[name]
        if has_init:
            return name
        return next(filter(None, map(owner, bases)), None)

    return {name: f"{owner(name)}.__init__" for name in classes if owner(name)}


def _calls(paths, constructors):
    """Callee -> (positional count, keyword names) of each call to it.  A call
    that unpacks ``*args`` counts as passing every position, one that unpacks
    ``**kwargs`` as passing every keyword (None)."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            name = constructors.get(name, name)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((
                float("inf") if starred else len(node.args),
                None if None in keywords else keywords,
            ))
    return calls


def test_every_defaulted_parameter_is_passed():
    sources, bench = _sources()
    calls = _calls(sources + bench, _constructors(sources))
    unpassed = [
        f"{callee}({name}) ({path.relative_to(ROOT)}:{line})"
        for path in sources
        for callee, name, position, line in _defaulted_parameters(path)
        if not any(
            keywords is None or name in keywords
            or (position is not None and count > position)
            for count, keywords in calls.get(callee, [])
        )
    ]
    assert not unpassed, (
        "defaulted parameters no call in src/ or perfbench/ passes: " + ", ".join(unpassed))


def test_records_have_no_generated_comparison_or_repr():
    # Nothing compares or prints a record, so none defines __eq__ or __repr__.
    records = {
        obj
        for info in pkgutil.iter_modules(dwmix.__path__)
        for obj in vars(importlib.import_module(f"dwmix.{info.name}")).values()
        if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
        and obj.__module__ == f"dwmix.{info.name}"
    }
    # The field rule above finds records by their written base; it must see
    # every record, an indirect subclass of Record included.
    sources, _ = _sources()
    assert {cls.__name__ for cls in records} == {
        node.name for path in sources for node in _records(path)}
    compared = {cls for cls in records
                if cls.__eq__ is not object.__eq__ or cls.__repr__ is not object.__repr__}
    assert not compared, "records with their own __eq__ or __repr__: " + ", ".join(
        sorted(cls.__name__ for cls in compared))
