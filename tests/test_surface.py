"""Every module-level function, class, constant or alias, every method and every
annotated field of a class body in src/bqcf, dunders aside, is referenced from src/bqcf
or perfbench, by a Name read, an Attribute or a dotted part of a string (the benchmark's
tracer looks its targets up by string).  A name only written, by its declaration or a
keyword, is unused."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {  # read only by the oracles; moving them there would copy the Morse formulas
    "Morse.phi": "the nonlinear energy oracle reads the one copy of the Morse formulas",
    "Morse.phi_x": "the nonlinear force oracle reads the one copy of the Morse formulas",
}


def _trees(folder):
    return [ast.parse(p.read_text()) for p in sorted((ROOT / folder).glob("*.py"))]


def _bound(node):
    """The names a module or class body statement binds that are not dunders:
    a def's or class's name, or the plain-name targets of an assignment."""
    if isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = [node.name] if hasattr(node, "name") else []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def test_no_src_name_is_used_only_by_tests():
    src, used, defined = _trees("src/bqcf"), set(), {}
    for node in (n for tree in src + _trees("perfbench") for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    for node in (n for tree in src for n in tree.body):
        defined.update((name, name) for name in _bound(node))
        for m in node.body if isinstance(node, ast.ClassDef) else ():
            defined.update((f"{node.name}.{name}", name) for name in _bound(m))
    unused = {qualified for qualified, name in defined.items() if name not in used}
    assert unused == set(ALLOWED), sorted(unused ^ set(ALLOWED))
