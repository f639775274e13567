"""The codebase's "one owner" rules, each checked over the syntax tree.

Each rule in RULES names the references it guards and the one module, or
function or class within a module, allowed to make them.  A guarded
reference is one of:
- a dotted name such as "json.loads", reached through the module's own
  imports, so an alias ("from .types import split_sentences as split")
  counts as the name it binds; a guarded name covers the names under it
  ("urllib.parse" covers "urllib.parse.urlsplit");
- an attribute of any object, written ".dot";
- the matrix-product operator, written "@";
- a method defined in a class, written "def get".
"""

import ast
import functools
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: Each rule's scope: the directory it checks, and the files in it.
SCOPES = {"src": (ROOT / "src" / "veriscope", "**/*.py"), "tests": (ROOT / "tests", "*.py")}


@dataclass(frozen=True)
class Rule:
    name: str
    scope: str  # a key of SCOPES
    guarded: tuple[str, ...]
    owner: str | None  # "file.py" or "file.py:qualname" relative to the scope; None allows no one
    message: str


_COSINE = "a module of src/veriscope takes a dot product itself; score through selection.cosines instead"

RULES = (
    Rule("one fake HTTP session", "tests", ("def get", "def post"), "conftest.py:ScriptedSession",
         "a test file defines its own fake HTTP session; script tests/conftest.py's ScriptedSession instead"),
    Rule("one URL reader", "src", ("urllib.parse",), "_http.py",
         "a module other than src/veriscope/_http.py parses or quotes a URL; read JsonHttpClient.host instead"),
    Rule("one punctuation stripper", "src", (".translate", ".maketrans"), "types.py",
         "a module other than src/veriscope/types.py strips text itself; call types.strip_punctuation instead"),
    Rule("one cosine rule (no dot product)", "src",
         (".dot", "numpy.inner", "numpy.vdot", "numpy.matmul", "numpy.tensordot", "numpy.einsum", "@"), None,
         _COSINE),
    Rule("one cosine rule (np.vecdot)", "src", ("numpy.vecdot",), "selection.py", _COSINE),
    Rule("one sentence splitter", "src", ("veriscope.types.split_sentences",), "index.py",
         "a module of src/veriscope splits sentences itself; read the hit's document split, "
         "StoredDocument.sentences, instead"),
    Rule("one JSON parser", "src", ("json.loads", "json.load", "json.JSONDecoder"), "types.py:parse_json",
         "a module of src/veriscope parses JSON itself; call types.parse_json or types.read_jsonl instead"),
    Rule("one abstention door", "src", ("veriscope.verdict.abstain_verdict",), "pipeline.py:ask_verdicts",
         "a verdict abstains outside pipeline.ask_verdicts, so its cause reaches no source_errors entry; "
         "raise instead and let ask_verdicts abstain through _abstain"),
)


def _module_name(scope: str, relative: str) -> str:
    parts = relative.removesuffix(".py").split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(["veriscope", *parts] if scope == "src" else parts)


def _aliases(tree: ast.Module, module: str, package: str) -> dict[str, str]:
    """Each name the module binds at import or top level -> the dotted name it stands for."""
    aliases = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            aliases[node.name] = f"{module}.{node.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            parts = package.split(".") if node.level else []
            base = ".".join(parts[: len(parts) - node.level + 1] + ([node.module] if node.module else []))
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    return aliases


def _dotted(node, aliases) -> str | None:
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return base and f"{base}.{node.attr}"
    return None


class _References(ast.NodeVisitor):
    """Collects (line, enclosing qualname, token) for every reference a rule can guard."""

    def __init__(self, aliases):
        self.aliases = aliases
        self.scope: list[str] = []
        self.found: list[tuple[int, str, str]] = []

    def add(self, node, token):
        self.found.append((node.lineno, ".".join(self.scope), token))

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.add(item, f"def {item.name}")
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id in self.aliases:
            self.add(node, self.aliases[node.id])

    def visit_Attribute(self, node):
        self.add(node, f".{node.attr}")
        if dotted := _dotted(node, self.aliases):
            self.add(node, dotted)
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self.add(node, "@")
        self.generic_visit(node)

    visit_AugAssign = visit_BinOp


@functools.cache
def _references(scope: str, relative: str, source: str) -> tuple[tuple[int, str, str], ...]:
    module = _module_name(scope, relative)
    package = module if relative.endswith("__init__.py") else module.rpartition(".")[0]
    tree = ast.parse(source, relative)
    visitor = _References(_aliases(tree, module, package))
    visitor.visit(tree)
    return tuple(visitor.found)


def _guards(rule: Rule, token: str) -> bool:
    return any(token == name or token.startswith(f"{name}.") for name in rule.guarded)


def _owns(rule: Rule, relative: str, qualname: str) -> bool:
    if rule.owner is None:
        return False
    path, _, owner = rule.owner.partition(":")
    return relative == path and (not owner or qualname == owner or qualname.startswith(f"{owner}."))


def violations(rule: Rule, files) -> list[str]:
    """"<file>:<line>: <message>" for each line of files, (relative path, source) pairs, that breaks rule."""
    lines = {
        (relative, line)
        for relative, source in files
        for line, qualname, token in _references(rule.scope, relative, source)
        if _guards(rule, token) and not _owns(rule, relative, qualname)
    }
    return [f"{relative}:{line}: {rule.message}" for relative, line in sorted(lines)]


def _scope_files(scope: str) -> tuple[tuple[str, str], ...]:
    root, pattern = SCOPES[scope]
    return tuple(
        (path.relative_to(root).as_posix(), path.read_text(encoding="utf-8")) for path in sorted(root.glob(pattern))
    )


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_each_job_has_one_owner(rule):
    files = _scope_files(rule.scope)
    assert files
    assert violations(rule, files) == [], f"paths are relative to {SCOPES[rule.scope][0].relative_to(ROOT)}"


RULE = {rule.name: rule for rule in RULES}


@pytest.mark.parametrize("name, relative, source", [
    ("one fake HTTP session", "test_remote.py", "class Fake:\n    def post(self, url, json=None):\n        pass\n"),
    ("one fake HTTP session", "conftest.py", "class Other:\n    def get(self, url):\n        pass\n"),
    ("one URL reader", "sources.py", "from urllib.parse import quote_plus as quote\nquote('a b')\n"),
    ("one URL reader", "cli.py", "import urllib.parse\nurllib.parse.urlsplit('http://a')\n"),
    ("one punctuation stripper", "bm25.py", "def tokenize(text):\n    return text.translate({}).split()\n"),
    ("one cosine rule (no dot product)", "aggregation.py", "def score(a, b):\n    return a @ b\n"),
    ("one cosine rule (no dot product)", "selection.py", "def score(a, b):\n    return a.dot(b)\n"),
    ("one cosine rule (no dot product)", "index.py", "import numpy as np\nnp.inner([1], [1])\n"),
    ("one cosine rule (np.vecdot)", "aggregation.py", "import numpy\nnumpy.vecdot([1], [1])\n"),
    ("one sentence splitter", "sources.py", "from .types import split_sentences as split\nsplit('A. B.')\n"),
    ("one sentence splitter", "types.py", "def split_sentences(body):\n    return split_sentences(body)\n"),
    ("one sentence splitter", "assets/__init__.py", "from .. import types\ntypes.split_sentences('A. B.')\n"),
    ("one JSON parser", "cli.py", "import json\njson.loads('{}')\n"),
    ("one JSON parser", "types.py", "from json import loads\ndef read_jsonl(line): return loads(line)\n"),
    ("one abstention door", "verdict.py", "def predict_verdict(scheme):\n    return abstain_verdict(scheme)\n"
                                          "def abstain_verdict(scheme):\n    pass\n"),
    ("one abstention door", "pipeline.py", "from . import verdict\n"
                                           "def verify_claim(s): return verdict.abstain_verdict(s)\n"),
])
def test_each_rule_flags_a_breach(name, relative, source):
    assert violations(RULE[name], [(relative, source)]) == [f"{relative}:2: {RULE[name].message}"]

