"""The library's error contract, read from its source: bad input is refused
with a ValueError, or DegenerateDataError, its one subclass; other raises
only guard against programming errors; and no handler catches every
exception, except around the read of a checkpoint's archive."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corrnet"
REFUSALS = {"ValueError", "DegenerateDataError"}
# Raises of another type, by function: each guards against a programming error.
DEFECT_GUARDS = {("__setitem__", "TypeError"), ("_fixed", "TypeError"),
                 ("__getitem__", "KeyError"), ("_raise_first_bad_row", "AssertionError")}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


class _Survey(ast.NodeVisitor):
    """Every class, raise and exception handler of a module, each raise and
    handler with the name of the function it lies in."""

    def __init__(self, tree):
        self.function = None
        self.classes, self.raises, self.handlers = [], [], []
        # A module function annotated "-> ValueError" builds the error it returns.
        self.builders = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                         and _name(node.returns) in REFUSALS}
        self.visit(tree)

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_ClassDef(self, node):
        self.classes.append((node.name, [_name(base) for base in node.bases]))
        self.generic_visit(node)

    def visit_Raise(self, node):
        self.raises.append((self.function, node))

    def visit_ExceptHandler(self, node):
        self.handlers.append((self.function, node))
        self.generic_visit(node)


def _surveys():
    return {path.name: _Survey(ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))}


def _is_exception(name) -> bool:
    builtin = getattr(builtins, name or "", None)
    return (isinstance(builtin, type) and issubclass(builtin, BaseException)) or (
        name or "").endswith(("Error", "Exception"))


def test_the_one_exception_class_is_degenerate_data_error():
    defined = [(module, name, bases) for module, survey in _surveys().items()
               for name, bases in survey.classes if any(map(_is_exception, bases))]
    assert defined == [("stats.py", "DegenerateDataError", ["ValueError"])]


def test_every_new_exception_is_a_refusal_or_a_defect_guard():
    raised = set()
    for module, survey in _surveys().items():
        for function, node in survey.raises:
            if not isinstance(node.exc, ast.Call):  # a re-raise, or a stored error
                continue
            name = _name(node.exc.func)
            raised.add(name)
            assert (name in REFUSALS | survey.builders or (function, name) in DEFECT_GUARDS), (
                f"{module}:{node.lineno}: {function} raises {name}")
    assert {name for _, name in DEFECT_GUARDS} <= raised


def test_only_the_checkpoint_archive_read_catches_every_exception():
    catch_all = []
    for module, survey in _surveys().items():
        for function, node in survey.handlers:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or _name(t) in ("Exception", "BaseException") for t in types):
                catch_all.append((module, function))
    assert catch_all == [("neural.py", "load_checkpoint")]
