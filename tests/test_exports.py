"""Every name a module exports is used by a command, the benchmark, CI or README.

A name in a ``src/troopnet`` module's ``__all__`` counts as used when code
outside its own definition refers to it: an identifier in ``src/`` or
``perfbench/`` (perfbench also reaches attributes as ``(module, "name")``
pairs), or the bare name, unquoted, in the CI workflow or in a README code
block. A reference from inside the definition of an exported name that is
itself unused does not count, so a dead helper cannot keep another alive.
Tests are not users: a function only tests call is a candidate for
deletion, and the tests keep their own copy as an oracle.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
MODULES = sorted((REPO / "src" / "troopnet").glob("*.py"))

# exported names no command calls yet, each with the reason it stays
ALLOWED = {
    "unobserved_individuals": "the roster individuals a ledger never saw, for the per-run stats ROADMAP item 5 plans",
}


def _words(node: ast.AST) -> set[str]:
    """The names node refers to: identifiers, attributes, imported names and
    the attribute of each (module, "name") pair."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Tuple) and len(sub.elts) > 1 and isinstance(sub.elts[0], ast.Name):
            second = sub.elts[1]
            if isinstance(second, ast.Constant) and isinstance(second.value, str):
                out.add(second.value)
    return out


def _defined(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _survey():
    """(exported name -> module, [(owner or None, words)], the text of the
    CI workflow and README code blocks); owner is the exported name a
    top-level statement of a src module defines."""
    exported, chunks = {}, []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = set()
        for stmt in tree.body:
            if "__all__" in _defined(stmt):
                names = set(ast.literal_eval(stmt.value))
                exported.update(dict.fromkeys(names, path.stem))
        for stmt in tree.body:
            if "__all__" not in _defined(stmt):
                owner = next(iter(_defined(stmt) & names), None)
                chunks.append((owner, _words(stmt)))
    for path in sorted((REPO / "perfbench").glob("*.py")):
        chunks.append((None, _words(ast.parse(path.read_text(encoding="utf-8")))))
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    text = (REPO / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    text += "\n".join(re.findall(r"^```\w*\n(.*?)^```", readme, re.M | re.S))
    return exported, chunks, text


def _unused(exported, chunks, text) -> set[str]:
    dead: set[str] = set()
    while True:
        live = set().union(*(words - {owner} for owner, words in chunks if owner not in dead))
        newly = {
            name
            for name in exported
            if name not in dead | live | ALLOWED.keys()
            and not re.search(rf"(?<![\w'\"]){re.escape(name)}(?![\w'\"])", text)
        }
        if not newly:
            return dead
        dead |= newly


def test_every_exported_name_is_used_outside_the_tests():
    exported, chunks, text = _survey()
    assert ALLOWED.keys() <= exported.keys()
    unused = _unused(exported, chunks, text)
    assert not unused, "exported but unused: " + ", ".join(sorted(f"{exported[n]}.{n}" for n in unused))
