"""Every module-level function or class, every non-dunder method and every annotated
field of a class body in src/bqcf is referenced from src/bqcf or perfbench, by a Name
read, an Attribute or a dotted part of a string (the benchmark's tracer looks its
targets up by string).  A field only written, by its declaration or a keyword, is unused."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {  # read only by the oracles; moving them now would copy the Morse formulas
    "PairPotential.phi": "the nonlinear energy oracle; stays until PairPotential folds into Morse",
    "PairPotential.phi_x": "the nonlinear force oracle; stays until PairPotential folds into Morse",
}


def _trees(folder):
    return [ast.parse(p.read_text()) for p in sorted((ROOT / folder).glob("*.py"))]


def test_no_src_name_is_used_only_by_tests():
    src, used, defined = _trees("src/bqcf"), set(), {}
    for node in (n for tree in src + _trees("perfbench") for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.update(node.value.split("."))
    for node in (n for tree in src for n in tree.body if hasattr(n, "name")):  # defs, classes
        defined[node.name] = node.name
        for m in node.body if isinstance(node, ast.ClassDef) else ():
            name = m.target.id if isinstance(m, ast.AnnAssign) else getattr(m, "name", None)
            if name and not (name.startswith("__") and name.endswith("__")):
                defined[f"{node.name}.{name}"] = name
    unused = {qualified for qualified, name in defined.items() if name not in used}
    assert unused == set(ALLOWED), sorted(unused ^ set(ALLOWED))
