#!/usr/bin/env python3
"""scalocate custom lint: repo contracts no generic analyzer knows about.

Five rules, each enforcing an invariant the codebase relies on and that
clang-tidy / compiler warnings cannot see:

  memory-order    std::memory_order uses are confined to an allowlisted set
                  of audited lock-free files, so relaxed-atomic code cannot
                  spread through the tree unreviewed; an allowlist entry
                  that matches no file under src/ is flagged stale, so a
                  deleted file's audit cannot pre-approve a new one.
  error-taxonomy  every class deriving from scalocate::Error either carries
                  the Transient mixin or is named in the terminal-errors
                  list in src/common/error.hpp, so api::with_retry can
                  never silently misclassify a new exception type.
  metric-drift    every obs metric-name string literal registered in src/
                  appears in the README "Observability" table, and every
                  instrument the table documents is registered somewhere in
                  src/ (bidirectional; dynamically-built names are declared
                  in DYNAMIC_METRIC_LEAVES with a justification).
  header-using    headers contain no `using namespace` at namespace scope
                  (function-local is fine); a header-level using-directive
                  injects names into every includer.
  test-only-api   every namespace-scope function declared in a src/ header
                  is named on some line under src/, bench/, examples/ or
                  perfbench/ other than its own declarations and
                  definitions, so code that only tests call cannot
                  accumulate in the library. When one name is declared in
                  several namespaces, a use counts for a declaration only
                  if it qualifies the name with that declaration's
                  innermost namespace or sits inside that namespace, so
                  same-named functions cannot hide each other. Likewise
                  every class or struct defined (with a body) at namespace
                  scope in a src/ header is named on some line there, not
                  counting the lines of its own body and its unindented
                  out-of-line member definitions under src/. The
                  exceptions (test oracles and test hooks) are listed in
                  TEST_ONLY_API_ALLOWLIST with a reason, and an entry that
                  names no declared function or class, or whose functions
                  and classes have all gained such a use, is flagged stale.
                  Member functions are out of scope (matching them needs a
                  C++ parser).

Usage:  python3 tools/scalocate_lint.py [--root DIR] [--rule NAME]
Exit status is non-zero iff any finding is reported. Run from anywhere;
--root defaults to the repository root (the parent of this file's dir).

tests/test_lint.py proves each rule both fires and passes on fixture
snippets; ctest runs that self-test plus this script against the tree.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# ---------------------------------------------------------------------------
# Rule: memory-order
# ---------------------------------------------------------------------------

# Files (path prefixes relative to the repo root, '/'-separated) where
# std::memory_order is allowed, each with the audit rationale. Extending
# lock-free code into a new file means auditing it and adding it here with
# a justification — that review step is the point of the rule.
MEMORY_ORDER_ALLOWLIST = {
    "src/obs/": "lock-free telemetry hot path is the subsystem's contract: "
                "relaxed counters/gauges, per-thread histogram shards "
                "(audited in the obs PR)",
    "src/runtime/fault_injector.": "site arming flags are read on every "
                                   "hot-path probe; relaxed reads, "
                                   "release publication",
    "src/runtime/thread_pool.": "pool stop/quiesce flags polled by workers",
    "src/api/engine.cpp": "job cancel/deadline flags and queue-depth "
                          "watermark polled by workers without the queue "
                          "mutex",
    "src/nn/kernels/parallel.cpp": "intra-op work distribution: chunk "
                                   "counter fetch_add and completion "
                                   "latch (audited in the parallel-GEMM "
                                   "PR, raced under TSan in CI)",
}


def _strip_line_comments(line: str) -> str:
    return line.split("//", 1)[0]


def _cxx_files(root: Path) -> list[Path]:
    src = root / "src"
    if not src.is_dir():
        return []
    return sorted(p for p in src.rglob("*") if p.suffix in (".cpp", ".hpp"))


def check_memory_order(root: Path) -> list[str]:
    findings = []
    for path in _cxx_files(root):
        rel = path.relative_to(root).as_posix()
        if any(rel.startswith(prefix) for prefix in MEMORY_ORDER_ALLOWLIST):
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "memory_order" in _strip_line_comments(line):
                findings.append(
                    f"{rel}:{lineno}: [memory-order] std::memory_order "
                    f"outside the audited lock-free allowlist; audit the "
                    f"file and add it to MEMORY_ORDER_ALLOWLIST in "
                    f"tools/scalocate_lint.py with a justification")
    return findings


def check_memory_order_allowlist(root: Path,
                                 allowlist: dict[str, str]) -> list[str]:
    """Flags allowlist prefixes that match no C++ file under src/. Separate
    from check_memory_order so fixture trees can pass their own list."""
    files = [p.relative_to(root).as_posix() for p in _cxx_files(root)]
    return [f"tools/scalocate_lint.py: [memory-order] MEMORY_ORDER_ALLOWLIST "
            f"entry '{prefix}' matches no file under src/; remove the stale "
            f"entry"
            for prefix in sorted(allowlist)
            if not any(f.startswith(prefix) for f in files)]


def memory_order_rule(root: Path) -> list[str]:
    return (check_memory_order(root) +
            check_memory_order_allowlist(root, MEMORY_ORDER_ALLOWLIST))


# ---------------------------------------------------------------------------
# Rule: error-taxonomy
# ---------------------------------------------------------------------------

_TERMINAL_BEGIN = "scalocate-lint: terminal-errors"
_TERMINAL_END = "scalocate-lint: end-terminal-errors"

# `class X final : bases {` / `struct X : bases {` — possibly spanning lines.
_CLASS_DECL = re.compile(
    r"\b(class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?:\s*([^{;]+)\{")


def _parse_terminal_list(root: Path) -> tuple[set[str], str | None]:
    """Returns (terminal class names, error-or-None)."""
    hpp = root / "src" / "common" / "error.hpp"
    if not hpp.is_file():
        return set(), f"{hpp.relative_to(root).as_posix()}: missing"
    text = hpp.read_text()
    begin = text.find(_TERMINAL_BEGIN)
    end = text.find(_TERMINAL_END)
    if begin < 0 or end < begin:
        return set(), (f"src/common/error.hpp: no '{_TERMINAL_BEGIN}' ... "
                       f"'{_TERMINAL_END}' block to parse")
    names = set(re.findall(r"[A-Za-z_]\w*",
                           text[begin + len(_TERMINAL_BEGIN):end]))
    return names, None


def _class_hierarchy(root: Path) -> dict[str, set[str]]:
    """Maps class name -> direct base names (namespace-qualifiers stripped),
    across all C++ files under src/."""
    bases_of: dict[str, set[str]] = {}
    for path in _cxx_files(root):
        # Strip line comments so commented-out declarations don't parse.
        text = "\n".join(_strip_line_comments(l)
                         for l in path.read_text().splitlines())
        for m in _CLASS_DECL.finditer(text):
            name = m.group(2)
            bases = set()
            for piece in m.group(3).split(","):
                piece = re.sub(r"\b(public|protected|private|virtual)\b",
                               "", piece).strip()
                if piece:
                    bases.add(piece.split("<")[0].split("::")[-1].strip())
            bases_of.setdefault(name, set()).update(bases)
    return bases_of


def _derives_from(name: str, target: str,
                  bases_of: dict[str, set[str]]) -> bool:
    seen, stack = set(), [name]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        for base in bases_of.get(cur, ()):
            if base == target:
                return True
            stack.append(base)
    return False


def check_error_taxonomy(root: Path) -> list[str]:
    terminal, err = _parse_terminal_list(root)
    if err:
        return [f"{err} [error-taxonomy]"]
    bases_of = _class_hierarchy(root)
    findings = []
    error_classes = sorted(
        n for n in bases_of
        if n != "Error" and _derives_from(n, "Error", bases_of))
    for name in error_classes:
        transient = _derives_from(name, "Transient", bases_of)
        if transient and name in terminal:
            findings.append(
                f"src/common/error.hpp: [error-taxonomy] {name} carries "
                f"Transient but is also listed terminal; remove one")
        elif not transient and name not in terminal:
            findings.append(
                f"[error-taxonomy] {name} derives from scalocate::Error but "
                f"is neither Transient nor in the terminal-errors list in "
                f"src/common/error.hpp; classify it so with_retry semantics "
                f"stay total")
    stale = terminal - set(error_classes)
    for name in sorted(stale):
        findings.append(
            f"src/common/error.hpp: [error-taxonomy] terminal-errors lists "
            f"'{name}' but no such Error subclass exists in src/")
    return findings


# ---------------------------------------------------------------------------
# Rule: metric-drift
# ---------------------------------------------------------------------------

# Instrument names that are assembled at runtime and therefore have no
# single string literal for the code-side scan to find. Keyed by the name's
# final dotted segment (the "leaf"); the value is where/why.
DYNAMIC_METRIC_LEAVES: dict[str, str] = {}

_REGISTRATION = re.compile(r"(?:counter|gauge|histogram)\s*\(([^()]*)\)")
_STRING_LIT = re.compile(r'"([^"]*)"')
_BACKTICKED = re.compile(r"`([^`]+)`")


def _code_metric_literals(root: Path) -> dict[str, list[str]]:
    """Maps leaf -> ['path:line', ...] for every metric-name string literal
    passed to a counter()/gauge()/histogram() registration in src/."""
    leaves: dict[str, list[str]] = {}
    for path in _cxx_files(root):
        rel = path.relative_to(root).as_posix()
        text = path.read_text()
        for m in _REGISTRATION.finditer(text):
            for lit in _STRING_LIT.findall(m.group(1)):
                if "." not in lit:
                    continue  # ("gemm", m, n, k)-style args, not names
                leaf = lit.rsplit(".", 1)[-1]
                lineno = text.count("\n", 0, m.start()) + 1
                leaves.setdefault(leaf, []).append(f"{rel}:{lineno}")
    return leaves


def _readme_metric_patterns(root: Path) -> tuple[set[str], str | None]:
    """Backticked instrument names from the README Observability table,
    with <placeholders> replaced by '*'. Returns (patterns, error)."""
    readme = root / "README.md"
    if not readme.is_file():
        return set(), "README.md: missing"
    lines = readme.read_text().splitlines()
    try:
        start = next(i for i, l in enumerate(lines)
                     if l.strip() == "## Observability")
    except StopIteration:
        return set(), "README.md: no '## Observability' section"
    patterns: set[str] = set()
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if not line.startswith("|") or set(line.strip("| ")) <= {"-"}:
            continue
        cells = line.split("|")
        if len(cells) < 3:
            continue
        for token in _BACKTICKED.findall(cells[2]):
            token = re.sub(r"<[^>]*>", "*", token)
            if "." in token and re.fullmatch(r"[\w.*]+", token):
                patterns.add(token)
    if not patterns:
        return set(), ("README.md: Observability table has no parseable "
                       "instrument names")
    return patterns, None


def check_metric_drift(root: Path) -> list[str]:
    patterns, err = _readme_metric_patterns(root)
    if err:
        return [f"{err} [metric-drift]"]
    doc_leaves = {p.rsplit(".", 1)[-1] for p in patterns}
    code_leaves = _code_metric_literals(root)
    findings = []
    for leaf, sites in sorted(code_leaves.items()):
        if leaf not in doc_leaves:
            findings.append(
                f"{sites[0]}: [metric-drift] metric name '*.{leaf}' is "
                f"registered in src/ but missing from the README "
                f"Observability table")
    for leaf in sorted(doc_leaves):
        if leaf not in code_leaves and leaf not in DYNAMIC_METRIC_LEAVES:
            findings.append(
                f"README.md: [metric-drift] Observability table documents "
                f"an instrument ending '.{leaf}' but no registration in "
                f"src/ uses that name (if the name is built dynamically, "
                f"declare it in DYNAMIC_METRIC_LEAVES in "
                f"tools/scalocate_lint.py)")
    return findings


# ---------------------------------------------------------------------------
# Rule: header-using
# ---------------------------------------------------------------------------

def _strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals (preserving newlines) so
    brace tracking and `using namespace` matching see only code."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.extend(ch if ch == "\n" else " " for ch in text[i:j])
            i = j
        elif c in "\"'":
            quote, j = c, i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            i = min(j + 1, n)
            out.append(" ")
        else:
            out.append(c)
            i += 1
    return "".join(out)


_NAMESPACE_INTRODUCER = re.compile(r"namespace\s+([\w:]*)\s*$|namespace\s*$")


def _namespace_brace(text: str, pos: int) -> list[str] | None:
    """The names the '{' at `pos` opens if it is a namespace brace
    (`namespace a::b {` -> ['a', 'b'], `namespace {` -> []), else None."""
    m = _NAMESPACE_INTRODUCER.search(text[max(0, pos - 120):pos])
    if not m:
        return None
    return [name for name in (m.group(1) or "").split("::") if name]


def check_header_using(root: Path) -> list[str]:
    findings = []
    for path in _cxx_files(root):
        if path.suffix != ".hpp":
            continue
        rel = path.relative_to(root).as_posix()
        text = _strip_comments_and_strings(path.read_text())
        # Each '{' is a namespace brace iff the code before it ends with a
        # namespace introducer; `using namespace` is at namespace scope iff
        # every enclosing brace is a namespace brace.
        depth_other = 0  # non-namespace braces currently open
        stack = []
        for m in re.finditer(r"[{}]|using\s+namespace\b", text):
            tok = m.group(0)
            if tok == "{":
                is_ns = _namespace_brace(text, m.start()) is not None
                stack.append(is_ns)
                depth_other += 0 if is_ns else 1
            elif tok == "}":
                if stack and not stack.pop():
                    depth_other -= 1
            elif depth_other == 0:
                lineno = text.count("\n", 0, m.start()) + 1
                findings.append(
                    f"{rel}:{lineno}: [header-using] `using namespace` at "
                    f"namespace scope in a header injects names into every "
                    f"includer; qualify the names or move the directive "
                    f"into a function body")
    return findings


# ---------------------------------------------------------------------------
# Rule: test-only-api
# ---------------------------------------------------------------------------

# Namespace-scope functions and classes that may stay without a use outside
# tests/, each with the reason: the oracles the parity tests compare
# against, the tests' access to the tiles dispatch does not pick, and the
# kernel tests' grain override.
TEST_ONLY_API_ALLOWLIST = {
    "check_layer_gradients": "finite-difference gradient checker: the "
                             "oracle of every layer's backward in tests/",
    "conv1d_backward_naive": "naive conv backward: the oracle of the "
                             "im2col + GEMM backward (ConvParity)",
    "linear_forward_naive": "naive Linear forward: the oracle of the GEMM "
                            "forward (LinearParity)",
    "linear_backward_naive": "naive Linear backward: the oracle of the "
                             "GEMM backward (LinearParity)",
    "tiles": "the kernel tile table, so the kernel tests run every tile the "
             "host supports, not only the dispatched one (dispatched_tile() "
             "reads the table directly)",
    "percentile_sorted": "exact percentile over sorted samples: the oracle "
                         "of Histogram::Snapshot::quantile (ObsHistogram)",
    "ParallelGrainGuard": "drops the threading threshold so the kernel "
                          "tests send tiny GEMMs and convs through the "
                          "parallel path (GemmThreaded)",
}

# Directories whose code counts as a caller.
_CALLER_DIRS = ("src", "bench", "examples", "perfbench")

# An unindented line that declares or defines a function: a return type,
# then the name and its opening parenthesis. Namespace bodies are not
# indented in this tree, so class members (indented) never match, and
# neither do qualified out-of-class definitions (`Foo::bar(`).
_FUNC_DECL = re.compile(
    r"^(?!(?:return|using|namespace|class|struct|enum|typedef|template|"
    r"friend|static_assert|if|for|while|switch|else|case|do)\b)"
    r"[A-Za-z_\[][\w:<>,*&\s\[\]]*?[\s*&>]([A-Za-z_]\w*)\s*\(")


_WORD = re.compile(r"[A-Za-z_]\w*")
_QUALIFIER = re.compile(r"(\w+)\s*::\s*$")


def _scoped_code_lines(path: Path) -> list[tuple[str, list[str]]]:
    """Each line of `path` with comments and strings blanked, paired with
    the named namespaces open at its start, outermost first."""
    text = _strip_comments_and_strings(path.read_text())
    braces: list[list[str]] = []  # names each open brace opened
    open_at_line: list[list[str]] = [[]]
    for m in re.finditer(r"[{}\n]", text):
        if m.group(0) == "\n":
            open_at_line.append([name for names in braces for name in names])
        elif m.group(0) == "{":
            braces.append(_namespace_brace(text, m.start()) or [])
        elif braces:
            braces.pop()
    return list(zip(text.splitlines(), open_at_line))


def _declared_name(line: str) -> str | None:
    m = _FUNC_DECL.match(line)
    if not m or m.group(1) == "operator":
        return None
    return m.group(1)


Function = tuple[str, str]  # (innermost namespace, name)


def _test_only_functions(root: Path
                         ) -> tuple[dict[Function, str], set[Function]]:
    """(function -> 'path:line' of its first header declaration, the
    functions that have a caller) for every namespace-scope function
    declared in a header under src/.

    A use of a name declared in one namespace calls it. A name declared in
    several namespaces is resolved per use: `ns::name` calls the one in
    `ns`, and an unqualified use calls the ones in the namespaces around
    it."""
    declared: dict[Function, str] = {}
    for path in _cxx_files(root):
        if path.suffix != ".hpp":
            continue
        rel = path.relative_to(root).as_posix()
        for lineno, (line, namespaces) in enumerate(_scoped_code_lines(path),
                                                    1):
            name = _declared_name(line)
            function = (namespaces[-1] if namespaces else "", name)
            if name and function not in declared:
                declared[function] = f"{rel}:{lineno}"
    namespaces_of: dict[str, set[str]] = {}
    for namespace, name in declared:
        namespaces_of.setdefault(name, set()).add(namespace)
    called: set[Function] = set()
    for top in _CALLER_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".cpp", ".hpp"):
                continue
            for line, namespaces in _scoped_code_lines(path):
                own = _declared_name(line)
                for m in _WORD.finditer(line):
                    name = m.group(0)
                    if name == own or name not in namespaces_of:
                        continue
                    targets = namespaces_of[name]
                    if len(targets) > 1:
                        qualifier = _QUALIFIER.search(line[:m.start()])
                        targets = targets & ({qualifier.group(1)} if qualifier
                                             else set(namespaces))
                    called.update((namespace, name) for namespace in targets)
    return declared, called


# The head of a class or struct definition, up to its opening brace:
# `class X final : public Y`, `struct alignas(64) X`.
_CLASS_HEAD = re.compile(
    r"\b(?:class|struct)\s+(?:alignas\s*\([^)]*\)\s*)?([A-Za-z_]\w*)\s*"
    r"(?:final\s*)?(?::[^{;]*)?$")


def _header_classes(path: Path) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of every class or struct defined
    with a body at namespace scope in `path`; the lines span its head
    and its body."""
    text = _strip_comments_and_strings(path.read_text())
    found = []
    # Per open brace: None for a namespace, (name, head line) for a class
    # body at namespace scope, False for anything else.
    stack: list = []
    statement = 0  # where the code before the current brace starts
    for m in re.finditer(r"[{};]", text):
        if m.group(0) == "{":
            head = _CLASS_HEAD.search(text, statement, m.start())
            if _namespace_brace(text, m.start()) is not None:
                stack.append(None)
            elif (head and all(kind is None for kind in stack) and
                  not re.search(r"\benum\s*$", text[statement:head.start()])):
                stack.append((head.group(1),
                              text.count("\n", 0, head.start()) + 1))
            else:
                stack.append(False)
        elif m.group(0) == "}" and stack:
            kind = stack.pop()
            if kind:
                found.append((kind[0], kind[1],
                              text.count("\n", 0, m.start()) + 1))
        statement = m.end()
    return found


def _member_definition(name: str) -> re.Pattern:
    """An unindented line defining a member of class `name` out of line:
    `void X::f(`, `X::X(`, `X::~X(`, `X& X::operator=(`."""
    return re.compile(
        rf"^(?!\s)[^=(]*\b{name}\s*::\s*(?:~\s*)?(?:operator\b[^(]*|\w+)"
        rf"\s*\(")


def _test_only_classes(root: Path) -> tuple[dict[str, str], set[str]]:
    """(class name -> 'path:line' of its first header definition, the
    classes some line names) for every class or struct defined at
    namespace scope in a header under src/. The lines of the class's own
    head and body do not count, nor do its out-of-line member definitions
    under src/."""
    declared: dict[str, str] = {}
    own_lines: dict[str, set[tuple[str, int]]] = {}
    for path in _cxx_files(root):
        if path.suffix != ".hpp":
            continue
        rel = path.relative_to(root).as_posix()
        for name, first, last in _header_classes(path):
            declared.setdefault(name, f"{rel}:{first}")
            own_lines.setdefault(name, set()).update(
                (rel, line) for line in range(first, last + 1))
    definitions = {name: _member_definition(name) for name in declared}
    used: set[str] = set()
    for top in _CALLER_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".cpp", ".hpp"):
                continue
            rel = path.relative_to(root).as_posix()
            text = _strip_comments_and_strings(path.read_text())
            for lineno, line in enumerate(text.splitlines(), 1):
                for name in set(_WORD.findall(line)) & declared.keys():
                    if (name in used or (rel, lineno) in own_lines[name] or
                            (top == "src" and
                             definitions[name].match(line))):
                        continue
                    used.add(name)
    return declared, used


def check_test_only_api(root: Path,
                        allowlist: dict[str, str] | None = None) -> list[str]:
    """Flags header functions and classes without a use outside tests/,
    and stale allowlist entries. Fixture trees pass their own allowlist."""
    allowlist = TEST_ONLY_API_ALLOWLIST if allowlist is None else allowlist
    declared, called = _test_only_functions(root)
    classes, used = _test_only_classes(root)
    findings = []
    for (namespace, name), site in sorted(declared.items(),
                                          key=lambda kv: kv[1]):
        if (namespace, name) not in called and name not in allowlist:
            qualified = f"{namespace}::{name}" if namespace else name
            findings.append(
                f"{site}: [test-only-api] {qualified}() is declared in a src/ "
                f"header but nothing under src/, bench/, examples/ or "
                f"perfbench/ calls it; delete it (with its tests) or add it "
                f"to TEST_ONLY_API_ALLOWLIST in tools/scalocate_lint.py "
                f"with a reason")
    for name, site in sorted(classes.items(), key=lambda kv: kv[1]):
        if name not in used and name not in allowlist:
            findings.append(
                f"{site}: [test-only-api] class {name} is defined in a src/ "
                f"header but nothing under src/, bench/, examples/ or "
                f"perfbench/ names it outside its own body and member "
                f"definitions; delete it (with its tests) or add it to "
                f"TEST_ONLY_API_ALLOWLIST in tools/scalocate_lint.py with a "
                f"reason")
    for name in sorted(allowlist):
        functions = [f for f in declared if f[1] == name]
        if not functions and name not in classes:
            findings.append(
                f"tools/scalocate_lint.py: [test-only-api] "
                f"TEST_ONLY_API_ALLOWLIST entry '{name}' names no function "
                f"or class declared in a src/ header; remove the stale "
                f"entry")
        elif (all(f in called for f in functions) and
              (name not in classes or name in used)):
            findings.append(
                f"tools/scalocate_lint.py: [test-only-api] "
                f"TEST_ONLY_API_ALLOWLIST entry '{name}' has a caller "
                f"outside tests/ now; remove the stale entry")
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

RULES = {
    "memory-order": memory_order_rule,
    "error-taxonomy": check_error_taxonomy,
    "metric-drift": check_metric_drift,
    "header-using": check_header_using,
    "test-only-api": check_test_only_api,
}


def run(root: Path, rules=None) -> list[str]:
    findings = []
    for name in rules or RULES:
        findings.extend(RULES[name](root))
    return findings


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent,
                    help="repository root (default: this file's parent dir)")
    ap.add_argument("--rule", action="append", choices=sorted(RULES),
                    help="run only this rule (repeatable; default: all)")
    args = ap.parse_args(argv)
    findings = run(args.root.resolve(), args.rule)
    for f in findings:
        print(f)
    print(f"scalocate_lint: {len(findings)} finding(s) "
          f"across {len(args.rule or RULES)} rule(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
