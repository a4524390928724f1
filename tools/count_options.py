"""Count the settable options of the gridpriv package and print the total.

An option is a defaulted parameter of a public function or method, an init
field of a public dataclass, or a click option. Public means no leading
underscore on the name, nor on any class it is defined in. Run from the
repository root:

    python tools/count_options.py [SOURCE_DIR]
"""

import ast
import sys
from pathlib import Path


def _name(node):
    """The last dotted part of a decorator or call target."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _init_field(stmt):
    """Whether an annotated class statement is a dataclass init field."""
    if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
        return False
    value = stmt.value
    if isinstance(value, ast.Call) and _name(value) == "field":
        return not any(k.arg == "init" and isinstance(k.value, ast.Constant)
                       and k.value.value is False for k in value.keywords)
    return True


def count_options(node, public=True):
    """Options defined in a module or class body, and in the classes nested in it."""
    count = 0
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += sum(_name(d) == "option" for d in child.decorator_list)
            if public and not child.name.startswith("_"):
                args = child.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(child, ast.ClassDef):
            inner = public and not child.name.startswith("_")
            if inner and any(_name(d) == "dataclass" for d in child.decorator_list):
                count += sum(_init_field(stmt) for stmt in child.body)
            count += count_options(child, inner)
    return count


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src/gridpriv")
    print(sum(count_options(ast.parse(path.read_text())) for path in sorted(root.glob("*.py"))))


if __name__ == "__main__":
    main(sys.argv)
