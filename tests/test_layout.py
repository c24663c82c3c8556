"""The package's layout: a root that binds nothing but its version, no
function, class or public method in `src/` that `src/` never calls, and each
numeric interval stated once, in `util.INTERVALS`."""

import ast
import re
from collections import Counter
from pathlib import Path

from denseadapt import pipeline, util

SRC = Path(pipeline.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"}

# The top-level names that no module of the package references, and why
# each stays.
UNCALLED = {
    **{f"stage_{name}": "run_stage and run_pipeline look it up in globals()"
       for name in pipeline.STAGE_NAMES},
    "tsdae_loss": "bench/tracing.py probes it as pretraining.loss",
}

INTERVAL = re.compile(r"[\[(][^,]+, [^,]+[\])]")


def references(node: ast.AST, attributes_only: bool = False) -> Counter:
    """How often each name is referenced under `node`: as a name, an
    imported name or an attribute, or only as an attribute."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif attributes_only:
            continue
        elif isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.alias):
            names[n.name] += 1
    return names


def definitions():
    """(dotted name, node, whether only attributes reference it) of each
    top-level function and class and each public method."""
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node, False
            if isinstance(node, ast.ClassDef):
                yield from ((f"{module}.{node.name}.{m.name}", m, True)
                            for m in node.body if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("_"))


def uncalled() -> list[str]:
    """The definitions that `src/` references only inside themselves."""
    totals = {flag: sum((references(tree, flag) for tree in MODULES.values()),
                        Counter()) for flag in (False, True)}
    return [name for name, node, attributes_only in definitions()
            if totals[attributes_only][node.name] ==
            references(node, attributes_only)[node.name]]


def test_package_root_binds_only_the_version():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    docstring, *rest = tree.body
    assert isinstance(docstring, ast.Expr) and \
        isinstance(docstring.value, ast.Constant)
    assert [ast.dump(node.targets[0]) if isinstance(node, ast.Assign)
            else type(node).__name__ for node in rest] == \
        [ast.dump(ast.Name("__version__", ast.Store()))]


def test_every_definition_has_a_caller_in_src():
    assert [name for name in uncalled()
            if name.rpartition(".")[2] not in UNCALLED] == []


def test_every_interval_names_a_config_leaf():
    leaves = {key.rpartition(".")[2] for key in pipeline._leaves(pipeline.DEFAULTS)}
    assert sorted(set(util.INTERVALS) - leaves) == []


def test_intervals_are_written_only_in_the_table():
    """Outside util.py only the two ranges that are the pipeline's own are
    written out: qgen_train's batch of two and a positive teacher scale."""
    literals = sorted(
        (module, node.value) for module, tree in MODULES.items()
        if module != "util" for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and INTERVAL.fullmatch(node.value))
    assert literals == [("pipeline", "(0, inf)"), ("pipeline", "[2, inf)")]
