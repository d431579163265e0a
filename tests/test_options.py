import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "halfext"
CEILING = 40
LINE_CEILING = 2163     # non-blank, non-comment lines of src/halfext/*.py


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d, "id", None) == "dataclass"
               or getattr(getattr(d, "func", None), "id", None) == "dataclass"
               for d in node.decorator_list)


def settable_options() -> list:
    """Parameters with a default, and defaulted public dataclass fields."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):]
                named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                found += [f"{path.stem}.{node.name}({x.arg})" for x in named]
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                found += [f"{path.stem}.{node.name}.{st.target.id}"
                          for st in node.body
                          if isinstance(st, ast.AnnAssign)
                          and st.value is not None
                          and not st.target.id.startswith("_")]
    return found


def test_settable_options_ceiling():
    options = settable_options()
    assert len(options) <= CEILING, (
        f"{len(options)} settable options in src/halfext, ceiling {CEILING}. "
        "A new option needs two callers outside the tests that set it, "
        "recorded in CHANGES.md; otherwise make it a constant.\n"
        + "\n".join(options))


def test_source_lines_ceiling():
    lines = sum(1 for path in SRC.glob("*.py")
                for line in path.read_text().splitlines()
                if line.strip() and not line.strip().startswith("#"))
    assert lines <= LINE_CEILING, (
        f"{lines} non-blank, non-comment lines in src/halfext, ceiling "
        f"{LINE_CEILING}. Raising the ceiling needs a CHANGES.md entry that "
        "says what the lines buy.")
