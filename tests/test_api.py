"""Every public name in g2lab has a user outside the tests.

A public module-level function or class must be referenced by code in
``src/``, ``scripts/`` or ``perfbench/`` (other than its own body and the
package ``__init__.py`` re-exports), or be named by a traced metric in
``perfbench/worker.py``.  A name that only tests call belongs in ``tests/``.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "g2lab")
USER_DIRS = [os.path.join(ROOT, d) for d in ("src", "scripts", "perfbench")]


def _python_files(top):
    for dirpath, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _referenced(node):
    """Names read anywhere under ``node``, as bare names or attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _traced_names():
    """Dotted components of every name in worker.py's PER_LAYER/COUNT_ONLY."""
    names = set()
    for node in _parse(os.path.join(ROOT, "perfbench", "worker.py")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) in ("PER_LAYER", "COUNT_ONLY")
                        for t in node.targets)):
            for entry in ast.literal_eval(node.value):
                dotted = entry[0] if isinstance(entry, tuple) else entry
                names.update(dotted.split("."))
    return names


def _public_definitions():
    """(path, top-level node) for every public function and class in g2lab."""
    for path in _python_files(PACKAGE):
        if os.path.basename(path) == "__init__.py":
            continue
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node


def test_every_public_name_has_a_pipeline_user():
    # references per (file, top-level statement), so that a definition's
    # own body can be left out of its own count
    refs = []
    for top in USER_DIRS:
        for path in _python_files(top):
            if os.path.basename(path) == "__init__.py":
                continue
            for node in _parse(path).body:
                refs.append((path, node, _referenced(node)))
    traced = _traced_names()
    unused = []
    for path, node in _public_definitions():
        used = node.name in traced or any(
            node.name in names for p, n, names in refs
            if not (p == path and n.lineno == node.lineno))
        if not used:
            module = os.path.relpath(path, PACKAGE)[:-3].replace(os.sep, ".")
            unused.append(f"{module}.{node.name}")
    assert unused == []
