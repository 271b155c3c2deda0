"""AST determinism rules (DET101–DET106).

Each rule encodes one way this codebase has (or could have) silently
lost bit-exactness.  Rules are deliberately project-specific: the match
sets below name the engine's own scheduling entry points and the
simulator's own timestamp naming convention, not generic Python style.

Rule codes
----------
``DET101`` — ``np.random.default_rng()`` (or a bare ``default_rng()``)
    called without a seed.  Every unseeded generator draws from OS
    entropy, so two runs of the same experiment diverge.
``DET102`` — the process-global ``random`` module: module-level
    functions, ``random.seed``, unseeded ``random.Random()``, or
    ``from random import ...``.  Global RNG state is shared across the
    whole process — any import-order change reshuffles the stream.
``DET103`` — wall-clock reads (``time.time``, ``time.monotonic``,
    ``datetime.now``/``utcnow``/``today``, ``date.today``) reachable
    from simulation code.  Simulation time is ``engine.now_s``;
    ``time.perf_counter`` is allowed for measuring *host* runtime.
``DET104`` — iteration over an unordered collection (``set`` literal /
    comprehension / call, ``frozenset``, ``dict.values/keys/items``)
    whose body feeds the event schedule (``schedule``, ``schedule_at``,
    ``spawn``, ``fire``, ``enqueue``, ``submit``, ``submit_stream``,
    ``submit_batch``, ``push``).  Set iteration order varies with hash
    seeding; feeding it into the event list reorders same-instant ties.
``DET105`` — ``==`` / ``!=`` between simulation timestamps (``now``,
    ``*_s`` names in the timestamp vocabulary).  Float timestamps are
    sums of phase durations; exact equality is only correct when both
    sides are provably the same float (suppress with a justification
    where it is, e.g. the flat burst's same-instant elision).  Scoped
    to simulation code — equality *assertions* in tests/ and
    benchmarks/ are the bit-exactness contract itself.
``DET106`` — mutable default arguments.  A shared default accumulates
    state across calls, making results depend on call history.

Suppression: append ``# lint-ok: DET105`` (or a bare ``# lint-ok`` for
any rule) to the reported line.  See :mod:`repro.analysis.lint` for the
baseline workflow.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

#: code -> (summary, fix-it) for every rule, CFG rules included.
RULES: dict[str, tuple[str, str]] = {
    "DET100": (
        "file does not parse",
        "fix the syntax error (nothing else was checked)",
    ),
    "DET101": (
        "unseeded np.random.default_rng()",
        "pass an explicit seed or thread a shared seeded rng parameter",
    ),
    "DET102": (
        "process-global `random` module RNG",
        "use a seeded np.random.default_rng(seed) or random.Random(seed)",
    ),
    "DET103": (
        "wall-clock time in simulation code",
        "use engine.now_s for simulated time (time.perf_counter for host "
        "runtime measurement)",
    ),
    "DET104": (
        "unordered iteration feeds the event schedule",
        "iterate a list/tuple or wrap the collection in sorted(...)",
    ),
    "DET105": (
        "float equality on simulation timestamps",
        "compare with a tolerance, or suppress with a justification where "
        "both sides are provably the same float",
    ),
    "DET106": (
        "mutable default argument",
        "default to None and construct the value inside the function",
    ),
    "DET107": (
        "lock may be leaked",
        "release (busy = False / busy -= 1) or hand off the lock on every "
        "non-raising path",
    ),
}


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit, ordered for stable reports."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        fixit = RULES[self.code][1]
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"{self.message} (fix: {fixit})"
        )


_SUPPRESS_RE = re.compile(r"#\s*lint-ok(?::\s*(?P<codes>[A-Z0-9, ]+))?")


def suppressions(source: str) -> dict[int, set[str] | None]:
    """Per-line suppression map: line -> codes (None = all rules)."""
    table: dict[int, set[str] | None] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            table[lineno] = None
        else:
            table[lineno] = {c.strip() for c in codes.split(",") if c.strip()}
    return table


# -- match sets ----------------------------------------------------------------

_RANDOM_MODULE_FNS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "triangular", "vonmisesvariate", "paretovariate",
    "lognormvariate", "weibullvariate", "getrandbits", "randbytes", "seed",
})
_WALLCLOCK_TIME_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
})
_WALLCLOCK_DT_FNS = frozenset({"now", "utcnow", "today"})
_SCHEDULE_FEEDS = frozenset({
    "schedule", "schedule_at", "spawn", "fire", "enqueue", "submit",
    "submit_stream", "submit_batch", "push",
})
_UNORDERED_CALLS = frozenset({"set", "frozenset"})
_UNORDERED_METHODS = frozenset({"values", "keys", "items"})
#: Exact timestamp names, plus the ``*_time_s`` / ``*_now_s`` suffixes.
_TIME_NAMES = frozenset({
    "now", "now_s", "time_s", "start_s", "end_s", "done_s", "admit_s",
    "submit_s", "issue_s", "dispatch_s", "deadline_s", "makespan_s",
    "wake_s", "until_s",
})
_TIME_SUFFIXES = ("_time_s", "_now_s")
_MUTABLE_DEFAULT_CALLS = frozenset({
    "list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter",
    "OrderedDict",
})


def _terminal_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a Name/Attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_timestamp(node: ast.AST) -> bool:
    name = _terminal_name(node)
    if name is None:
        return False
    return name in _TIME_NAMES or name.endswith(_TIME_SUFFIXES)


def _is_unordered_iter(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _UNORDERED_CALLS:
            return True
        if isinstance(func, ast.Attribute) and func.attr in _UNORDERED_METHODS:
            return True
    return False


def _feeds_schedule(nodes) -> bool:
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Call):
                name = _terminal_name(node.func)
                if name in _SCHEDULE_FEEDS:
                    return True
    return False


class _RuleVisitor(ast.NodeVisitor):
    """One pass over a module for the non-CFG rules."""

    def __init__(self, path: str, sim_scope: bool):
        self.path = path
        self.sim_scope = sim_scope
        self.violations: list[Violation] = []

    def _hit(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(Violation(
            path=self.path,
            line=node.lineno,
            col=node.col_offset,
            code=code,
            message=message,
        ))

    # -- DET101 / DET102 / DET103 ------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            base = _terminal_name(func.value)
            if attr == "default_rng" and not node.args and not node.keywords:
                self._hit(node, "DET101",
                          "np.random.default_rng() called without a seed")
            elif base == "random" and attr in _RANDOM_MODULE_FNS:
                self._hit(node, "DET102",
                          f"random.{attr}() uses the process-global RNG")
            elif (base == "random" and attr == "Random"
                  and not node.args and not node.keywords):
                self._hit(node, "DET102",
                          "random.Random() constructed without a seed")
            elif base == "time" and attr in _WALLCLOCK_TIME_FNS:
                self._hit(node, "DET103",
                          f"time.{attr}() reads the wall clock")
            elif (attr in _WALLCLOCK_DT_FNS
                  and base in ("datetime", "date")):
                self._hit(node, "DET103",
                          f"{base}.{attr}() reads the wall clock")
        elif isinstance(func, ast.Name):
            if (func.id == "default_rng"
                    and not node.args and not node.keywords):
                self._hit(node, "DET101",
                          "default_rng() called without a seed")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self._hit(node, "DET102",
                      "`from random import ...` pulls in the process-global "
                      "RNG")
        self.generic_visit(node)

    # -- DET104 ------------------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        if _is_unordered_iter(node.iter) and _feeds_schedule(node.body):
            self._hit(node, "DET104",
                      "iteration over an unordered collection feeds the "
                      "event schedule")
        self.generic_visit(node)

    def _check_comprehension(self, node) -> None:
        if any(_is_unordered_iter(gen.iter) for gen in node.generators):
            elements = [node.elt] if hasattr(node, "elt") else [
                node.key, node.value
            ]
            if _feeds_schedule(elements):
                self._hit(node, "DET104",
                          "comprehension over an unordered collection feeds "
                          "the event schedule")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_comprehension(node)

    # -- DET105 ------------------------------------------------------------------

    def visit_Compare(self, node: ast.Compare) -> None:
        if self.sim_scope:
            sides = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, sides, sides[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    if _is_timestamp(side):
                        name = _terminal_name(side)
                        self._hit(node, "DET105",
                                  f"float equality against timestamp "
                                  f"{name!r}")
                        break
        self.generic_visit(node)

    # -- DET106 ------------------------------------------------------------------

    def _check_defaults(self, node) -> None:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            if default is None:
                continue
            mutable = isinstance(default, (
                ast.List, ast.Dict, ast.Set,
                ast.ListComp, ast.DictComp, ast.SetComp,
            ))
            if not mutable and isinstance(default, ast.Call):
                name = _terminal_name(default.func)
                mutable = name in _MUTABLE_DEFAULT_CALLS
            if mutable:
                self._hit(default, "DET106",
                          "mutable default argument is shared across calls")
        self.generic_visit(node)

    visit_FunctionDef = _check_defaults
    visit_AsyncFunctionDef = _check_defaults
    visit_Lambda = _check_defaults


def scan(tree: ast.Module, path: str, sim_scope: bool) -> list[Violation]:
    """Run the non-CFG rules over a parsed module."""
    visitor = _RuleVisitor(path, sim_scope)
    visitor.visit(tree)
    return visitor.violations
