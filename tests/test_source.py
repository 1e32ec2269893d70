import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lhc"


def test_the_package_raises_errors_instead_of_asserting():
    # python -O strips assert statements, so an invariant must be a raised error
    sources = sorted(SRC.glob("*.py"))
    assert sources, f"no Python files under {SRC}"
    asserts = [f"{path.name}:{node.lineno}" for path in sources
               for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The names an import statement binds: "np" for import numpy as np, "os" for import os.path."""
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def test_every_imported_name_is_used_in_its_module():
    # __init__.py imports to re-export, and a __future__ import is a directive
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{node.lineno} {name}" for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for name in _bound_names(node) if name not in used]
    assert unused == []


def test_every_private_helper_is_used_in_the_package():
    # a simplification that leaves a dead module-level _helper behind fails here;
    # an import is not a use, and neither is a helper's call to itself
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    helpers = {node.name for tree in trees for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.startswith("__")}
    assert helpers, f"no private helpers under {SRC}"
    used = set()
    for top in (node for tree in trees for node in tree.body):
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != owner:
                used.add(name)
    assert sorted(helpers - used) == []


def test_every_run_config_field_is_read_outside_run_config():
    # a setting that only RunConfig's own checks read changes nothing a run
    # does; reads match by attribute name (config.L), as helpers match by name
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    run_config = next(node for tree in trees for node in tree.body
                      if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    fields = {node.target.id for node in run_config.body if isinstance(node, ast.AnnAssign)}
    assert fields, "RunConfig declares no fields"
    read = {node.attr for tree in trees for top in tree.body if top is not run_config
            for node in ast.walk(top)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert sorted(fields - read) == []


def test_every_module_constant_is_read_in_the_package():
    # a module-level UPPER_CASE constant that only the tests read is a setting
    # without a setter; its own assignment is not a read, and reads match by name
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    constants = {target.id: top for tree in trees for top in tree.body
                 if isinstance(top, (ast.Assign, ast.AnnAssign))
                 for target in getattr(top, "targets", [getattr(top, "target", None)])
                 if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)}
    assert constants, f"no module-level constants under {SRC}"
    read = set()
    for top in (node for tree in trees for node in tree.body):
        for node in ast.walk(top):
            name = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in constants and constants[name] is not top:
                read.add(name)
    assert sorted(set(constants) - read) == []


def _is_out_grad(node: ast.AST) -> bool:
    """Whether node reads an op output's gradient: out.grad, or x.out.grad."""
    return (isinstance(node, ast.Attribute) and node.attr == "grad"
            and (isinstance(node.value, ast.Name) and node.value.id == "out"
                 or isinstance(node.value, ast.Attribute) and node.value.attr == "out"))


def test_only_the_tape_tests_whether_an_ops_output_received_a_gradient():
    # Tape.backward skips an op whose output got no gradient; an op's backward
    # that tests that again, on out.grad or a local copy (g = out.grad), is a
    # second home for the decision
    tree = ast.parse((SRC / "autodiff.py").read_text())
    tape = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                and node.name == "Tape")
    tape_backward = next(node for node in tape.body if isinstance(node, ast.FunctionDef)
                         and node.name == "backward")
    copies = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and _is_out_grad(node.value) for target in node.targets
              if isinstance(target, ast.Name)}
    tests = [node for node in ast.walk(tree) if isinstance(node, ast.Compare)
             and any(isinstance(o, ast.Constant) and o.value is None
                     for o in [node.left, *node.comparators])
             and any(_is_out_grad(o) or isinstance(o, ast.Name) and o.id in copies
                     for o in [node.left, *node.comparators])]
    in_tape = set(ast.walk(tape_backward))
    assert [node.lineno for node in tests if node not in in_tape] == []
    assert any(node in in_tape for node in tests), "Tape.backward no longer tests out.grad"


ONE_INPUT_OPS = {"transpose", "scale", "sigmoid", "tanh", "square", "slice_", "reshape", "sum_",
                 "softmax", "pair_softmax"}


def test_no_one_input_op_s_backward_tests_whether_its_input_requires_a_gradient():
    # _maybe_record records an op only when its output requires a gradient, which for an op
    # of one input is whether that input does; a backward that tests it again is a second home
    tree = ast.parse((SRC / "autodiff.py").read_text())
    one_input = {}
    for op in tree.body:
        if not isinstance(op, ast.FunctionDef):
            continue
        # out = Tensor(value, a.requires_grad): the output requires what its one input does
        if any(isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
               and isinstance(node.value.func, ast.Name) and node.value.func.id == "Tensor"
               and len(node.value.args) == 2 and isinstance(node.value.args[1], ast.Attribute)
               and node.value.args[1].attr == "requires_grad" for node in ast.walk(op)):
            one_input[op.name] = next(node for node in op.body if isinstance(node, ast.FunctionDef)
                                      and node.name == "backward")
    assert set(one_input) == ONE_INPUT_OPS
    reads = [f"{name}:{node.lineno}" for name, backward in one_input.items()
             for node in ast.walk(backward)
             if isinstance(node, ast.Attribute) and node.attr == "requires_grad"]
    assert reads == []
