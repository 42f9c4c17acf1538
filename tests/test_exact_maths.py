"""Every float operation in ``src/`` gives the same bits on any platform.

The determinism promise (README, "Determinism") holds only while each
float operation is exact or correctly rounded by IEEE 754: +, -, *, /,
sqrt and comparisons, applied in a fixed order. This test reads
``src/troopnet`` with ``ast`` and fails for any ``math.*`` or numpy
attribute that is not on the allowlist below, for the ``@`` operator, and
for numpy reductions called as array methods (``.sum()``, ``.dot()``, ...),
whose order of adds is numpy's pairwise or BLAS order. So a libm function
(``math.exp``), ``np.sum``, ``np.dot`` or ``np.linalg`` has to be argued
here, with its reason, before it lands.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted((REPO / "src" / "troopnet").glob("*.py"))

# reason -> the math and numpy attributes it covers (numpy spelled np)
ALLOWED = {
    "IEEE 754 requires sqrt to be correctly rounded": ("math.sqrt",),
    "correctly rounded sum, in CPython's own code": ("math.fsum",),
    "computed by CPython's own code from exact operations, not by libm": ("math.hypot",),
    "exact: splits off or scales by a power of two": ("math.frexp", "math.ldexp"),
    "integer arithmetic": ("math.isqrt",),
    "a constant or a classification: no rounding": ("math.inf", "math.isfinite", "math.isnan", "np.isfinite"),
    "elementwise IEEE 754 arithmetic, each result rounded once": (
        "np.add", "np.subtract", "np.multiply", "np.divide", "np.minimum",
    ),
    "adds left to right, one rounding per add, as a loop would": ("np.add.accumulate",),
    "builds, copies or indexes arrays: no arithmetic": (
        "np.array", "np.zeros", "np.empty", "np.empty_like", "np.full", "np.eye", "np.arange",
        "np.concatenate", "np.where",
    ),
    "a context, no arithmetic": ("np.errstate",),
}
ALLOWED_NAMES = {name: reason for reason, names in ALLOWED.items() for name in names}

# array methods that reduce in numpy's own order
REDUCING_METHODS = {"sum", "mean", "prod", "dot", "std", "var", "matmul"}

_CANONICAL = {"math": "math", "numpy": "np"}


def _dotted(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """The attribute chain node spells, as math.x or np.x.y, or None if it is not rooted in math or numpy."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases:
        return ".".join([aliases[node.id], *reversed(parts)])
    return None


def _uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each math or numpy attribute, @ and reducing method call in tree."""
    aliases, uses = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _CANONICAL:
                    aliases[alias.asname or alias.name] = _CANONICAL[alias.name]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in _CANONICAL:
            root, _, rest = node.module.partition(".")
            prefix = ".".join(filter(None, [_CANONICAL[root], rest]))
            uses.extend((node.lineno, f"{prefix}.{alias.name}") for alias in node.names)
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            name = _dotted(node, aliases)
            if name is not None:
                uses.append((node.lineno, name))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            uses.append((node.lineno, "@"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in REDUCING_METHODS and _dotted(node.func, aliases) is None:
                uses.append((node.lineno, f".{node.func.attr}()"))
    return uses


def _survey() -> dict[str, list[str]]:
    """what -> the places in src that use it."""
    found: dict[str, list[str]] = {}
    for path in MODULES:
        for line, what in _uses(ast.parse(path.read_text(encoding="utf-8"))):
            found.setdefault(what, []).append(f"{path.name}:{line}")
    return found


def test_src_uses_only_allowlisted_maths():
    found = _survey()
    unlisted = {what: places for what, places in found.items() if what not in ALLOWED_NAMES}
    assert not unlisted, "not on the allowlist of exact operations: " + "; ".join(
        f"{what} at {', '.join(places)}" for what, places in sorted(unlisted.items())
    )


def test_every_allowlist_entry_is_used():
    # an entry outlives its last use only by mistake: delete it with the code
    assert sorted(ALLOWED_NAMES.keys() - _survey().keys()) == []


def test_the_survey_catches_what_it_must():
    source = (
        "import numpy\nimport math as m\nfrom numpy.linalg import norm\n"
        "a = numpy.sum(x)\nb = m.exp(1)\nc = x @ y\nd = x.dot(y)\ne = numpy.add.reduce(x)\nf = x.total.sum()\n"
    )
    assert sorted(what for _line, what in _uses(ast.parse(source))) == [
        ".dot()", ".sum()", "@", "math.exp", "np.add.reduce", "np.linalg.norm", "np.sum",
    ]
