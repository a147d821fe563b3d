"""Every public name in g2lab has a user outside the tests.

A public module-level function or class must be referenced by code in
``src/``, ``scripts/`` or ``perfbench/`` (other than its own body), or be
named by a traced metric in ``perfbench/worker.py``.  A public method, and
a public field of a dataclass, must be read as an attribute somewhere in
those directories, or be named as ``module.Class.name`` in
``perfbench/worker.py``; reads inside a ``__post_init__`` are validation,
not use, and do not count.  A name that only tests read belongs in
``tests/``.  Every name is imported from its defining module: a package
``__init__.py`` holds its docstring and nothing else.

Blind spot: attributes are matched by name alone, so a name shared by two
classes (``to_json_dict``, ``norm_sq``, ``copy``) counts as read for both.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "g2lab")
USER_DIRS = [os.path.join(ROOT, d) for d in ("src", "scripts", "perfbench")]

#: members kept without a pipeline reader, and why
EXEMPT = {
    # ROADMAP.md item 2 builds the grid-native fibered families through it
    "gauge.fibered.FiberedConnection.pullback",
}


def _python_files(top):
    for dirpath, _, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _module(path):
    return os.path.relpath(path, PACKAGE)[:-3].replace(os.sep, ".")


def _referenced(node):
    """Names read anywhere under ``node``, as bare names or attributes."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _attribute_reads(node, out):
    """Add to ``out`` every attribute loaded under ``node``, outside the
    bodies of ``__post_init__``."""
    if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
        return
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        out.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _attribute_reads(child, out)


def _traced_names():
    """Every dotted prefix of the names in worker.py's PER_LAYER/COUNT_ONLY:
    ``gauge.fourier.FourierField.wedge.calls`` names the layer
    ``gauge.fourier``, the class ``FourierField`` and its method ``wedge``."""
    names = set()
    for node in _parse(os.path.join(ROOT, "perfbench", "worker.py")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) in ("PER_LAYER", "COUNT_ONLY")
                        for t in node.targets)):
            for entry in ast.literal_eval(node.value):
                parts = (entry[0] if isinstance(entry, tuple) else entry).split(".")
                names.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
    return names


def _public_definitions():
    """(path, top-level node) for every public function and class in g2lab."""
    for path in _python_files(PACKAGE):
        for node in _parse(path).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node


def _public_members(cls):
    """Public methods of a class, and its public fields if it is a dataclass."""
    dataclass = any("dataclass" in _referenced(d) for d in cls.decorator_list)
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif dataclass and isinstance(node, ast.AnnAssign):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name


def test_every_public_name_has_a_pipeline_user():
    # references per (file, top-level statement), so that a definition's
    # own body can be left out of its own count
    refs = []
    for top in USER_DIRS:
        for path in _python_files(top):
            for node in _parse(path).body:
                refs.append((path, node, _referenced(node)))
    traced = _traced_names()
    unused = []
    for path, node in _public_definitions():
        used = f"{_module(path)}.{node.name}" in traced or any(
            node.name in names for p, n, names in refs
            if not (p == path and n.lineno == node.lineno))
        if not used:
            unused.append(f"{_module(path)}.{node.name}")
    assert unused == []


def test_every_public_member_is_read_by_a_pipeline():
    reads = set()
    for top in USER_DIRS:
        for path in _python_files(top):
            _attribute_reads(_parse(path), reads)
    traced = _traced_names()
    unread = []
    for path, node in _public_definitions():
        if not isinstance(node, ast.ClassDef):
            continue
        for name in _public_members(node):
            qual = f"{_module(path)}.{node.name}.{name}"
            if name not in reads and qual not in traced and qual not in EXEMPT:
                unread.append(qual)
    assert unread == []


def test_package_inits_define_nothing():
    inits = [p for p in _python_files(PACKAGE) if os.path.basename(p) == "__init__.py"]
    assert inits
    for path in inits:
        tree = _parse(path)
        assert len(tree.body) == 1 and ast.get_docstring(tree) is not None, path
