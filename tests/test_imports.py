"""Import guards: every name a module of the package imports is used, every
private module-level name is used somewhere in the package, the public
names modules take from one another are the ones their ``__all__`` lists,
and importing the package leaves multiprocessing's modules unloaded.

No linter is a dependency, so this parses each module with ``ast``.  A name
bound by an import must be read somewhere in the module or be listed in its
``__all__`` (a re-export).  A module-level ``_name`` must be read, by name,
somewhere in the package outside its own definition.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

_SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "scaledist"


def _unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


@pytest.mark.parametrize("path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_the_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom json import dumps, loads\n__all__ = ['loads']\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "dumps")]


def _names_read(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _dead_private_names(trees):
    # by name across the package: a read in a module's own definition of the
    # name (a recursive call) does not count
    defined, read = set(), set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = {node.name}
            elif isinstance(node, ast.Assign):
                own = {t.id for t in node.targets if isinstance(t, ast.Name)}
            else:
                own = set()
            defined |= {name for name in own if name.startswith("_") and not name.startswith("__")}
            read |= set(_names_read(node)) - own
    return sorted(defined - read)


def test_every_private_module_level_name_is_used():
    trees = [ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))]
    assert _dead_private_names(trees) == []


def test_the_guard_sees_a_dead_private_name():
    defining = ast.parse("def _used(): pass\ndef _dead(n): return _dead(n)\n"
                         "_CONST = 1\n__all__ = []\nclass _Kind: pass\n")
    reading = ast.parse("from a import _used\nimport a\na._Kind\n")
    assert _dead_private_names([defining, reading]) == ["_CONST", "_dead"]


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _bound(tree):
    # names a module binds at its top level
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return names


def _surface_faults(trees):
    """(module, name, fault) for each ``__all__`` entry a module does not bind,
    and each public name one package module takes from another, by
    ``from .x import name`` or as ``x.name`` after ``from . import x``, that x's
    ``__all__`` does not list."""
    faults = [(module, name, "listed in __all__ but not bound")
              for module, tree in trees.items()
              for name in _exports(tree) if name not in _bound(tree)]
    for module, tree in trees.items():
        taken, modules = [], {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    modules.update((alias.asname or alias.name, alias.name)
                                   for alias in node.names)
                else:
                    taken += [(node.module, alias.name) for alias in node.names]
        taken += [(modules[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules]
        faults += [(module, "%s.%s" % (source, name), "imported but not in %s.__all__" % source)
                   for source, name in sorted(set(taken))
                   if not name.startswith("_") and name not in _exports(trees[source])]
    return sorted(faults)


def test_the_public_surface_is_all():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(_SRC.glob("*.py"))}
    assert _surface_faults(trees) == []


def test_the_guard_sees_an_unlisted_import_and_an_unbound_export():
    trees = {
        "a": ast.parse("__all__ = ['f', 'gone']\ndef f(): pass\ndef g(): pass\nH = 1\n"),
        "b": ast.parse("from .a import f, g, _p\nfrom . import a\na.H + a._q\n"),
    }
    assert _surface_faults(trees) == [
        ("a", "gone", "listed in __all__ but not bound"),
        ("b", "a.H", "imported but not in a.__all__"),
        ("b", "a.g", "imported but not in a.__all__"),
    ]


def test_importing_the_package_leaves_the_process_pool_unloaded():
    # the worker processes' modules are imported where run_experiment starts
    # them, not on every start-up nor when a config is built
    env = dict(os.environ, PYTHONPATH=str(_SRC.parent))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, scaledist; from scaledist.harness import ExperimentConfig; "
         "ExperimentConfig(setup='simple_normal'); "
         "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_the_public_surface_is_pinned():
    # a name joins or leaves the public surface only by changing this list
    import scaledist
    from scaledist import distance, standardise

    assert scaledist.__all__ == [
        "CondensedDistanceMatrix", "condensed_index", "read_condensed", "read_matrix_csv",
        "write_condensed", "write_matrix_csv",
        "cross", "cross_orders", "pairwise", "pairwise_orders",
        "adjusted_rand_index", "misclassification_rate",
        "ExperimentConfig", "run_experiment", "summarise",
        "Clustering", "Dendrogram", "cut_tree", "knn_classify", "linkage", "pam",
        "GeneratedDataset", "SetupSpec", "generate", "setup_catalog",
        "BoxplotParams", "METHODS", "Standardiser", "fit_standardiser",
        "__version__",
    ]
    assert distance.__all__ == [
        "check_order", "parse_order", "format_order",
        "pairwise", "cross", "pairwise_orders", "cross_orders",
    ]
    assert standardise.__all__ == [
        "LINEAR_METHODS", "POOLED_METHODS", "METHODS",
        "BoxplotParams", "Standardiser", "fit_standardiser",
    ]
