"""DET107: lock-discipline check via a simple CFG walk.

The scheduler's locks follow a small syntactic protocol — this check
verifies it *structurally*, complementing the runtime sanitizer (which
verifies executions):

* **acquire** — ``X.busy = True`` / ``X.busy += 1`` (attribute-style
  locks) or ``X[0] = True`` / ``X[0] = X[0] + 1`` (flat lock lists);
* **release** — the mirror assignments (``False`` / ``- 1``);
* **handoff** — ownership leaves the function without a release on its
  own lines.  Two forms are recognised: the lock variable passed on (a
  bare name in call arguments or a list/tuple literal — e.g.
  ``start(drain(cache))``, or the flat drain-frame literal that
  carries ``cache``), and the flat burst's *release
  continuation* — assigning a ``P_*REL`` / ``P_TRCBSY`` program-counter
  constant (``frame[0] = P_BUSREL``) parks the release in a later state
  machine arm, so the current arm's obligation is discharged.

The walk is flow-sensitive but deliberately simple: statement lists are
interpreted over a set of possible held-lock states (lock variable name
plus acquire line), branches fork and re-merge, loop bodies run twice
(entry state and entry∪one-iteration), and ``raise`` paths are exempt.
``return`` / ``break`` / ``continue`` / falling off the end all require
an empty held set — in this codebase every legitimate hold is released
or handed off before control leaves the acquiring region, so anything
still held at an exit is a leak (DET107) reported at the acquire site.

Releases of locks that are not held are ignored: the flat burst's
release *arms* legitimately release locks acquired in an earlier event
(a different walk of the same function body), which this per-pass
analysis sees as unheld.  The state-set is capped; a function whose
state space exceeds the cap is skipped rather than misreported.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.lint.rules import Violation

#: Program-counter constants whose assignment *is* the release plan:
#: P_BUSREL, P_ECCREL, P_TRCBSY (the tRCBSY arm spawns the drain frame
#: that owns the cache register).
_CONTINUATION_RE = re.compile(r"^_?P_\w*(REL|RCBSY)$")

_STATE_CAP = 64


def _lock_token(node: ast.AST) -> str | None:
    """Lock spelled as ``X.busy`` or ``X[0]`` for a simple name ``X``."""
    if (isinstance(node, ast.Attribute) and node.attr == "busy"
            and isinstance(node.value, ast.Name)):
        return node.value.id
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        index = node.slice
        if isinstance(index, ast.Constant) and index.value == 0:
            return node.value.id
    return None


def _classify(stmt: ast.stmt):
    """``("acquire"|"release", token)``, ``("handoff_all", None)``, or None."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        token = _lock_token(stmt.targets[0])
        value = stmt.value
        if token is not None:
            if isinstance(value, ast.Constant):
                if value.value is True:
                    return ("acquire", token)
                if value.value is False:
                    return ("release", token)
            if (isinstance(value, ast.BinOp)
                    and isinstance(value.right, ast.Constant)
                    and value.right.value == 1
                    and _lock_token(value.left) == token):
                if isinstance(value.op, ast.Add):
                    return ("acquire", token)
                if isinstance(value.op, ast.Sub):
                    return ("release", token)
        if (isinstance(value, ast.Name)
                and _CONTINUATION_RE.match(value.id)):
            return ("handoff_all", None)
    elif isinstance(stmt, ast.AugAssign):
        token = _lock_token(stmt.target)
        if (token is not None and isinstance(stmt.value, ast.Constant)
                and stmt.value.value == 1):
            if isinstance(stmt.op, ast.Add):
                return ("acquire", token)
            if isinstance(stmt.op, ast.Sub):
                return ("release", token)
    return None


def _handoff_names(stmt: ast.stmt, tokens: set[str]) -> set[str]:
    """Held lock names whose ownership this statement passes on.

    A bare ``Name`` occurrence inside call arguments or a list/tuple
    literal counts; ``X.attr`` / ``X[i]`` accesses do not (those are the
    lock's own protocol traffic).
    """
    if not tokens:
        return set()
    found: set[str] = set()
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(stmt):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    for node in ast.walk(stmt):
        if not (isinstance(node, ast.Name) and node.id in tokens):
            continue
        parent = parents.get(node)
        if isinstance(parent, ast.Call) and node in parent.args:
            found.add(node.id)
        elif isinstance(parent, (ast.List, ast.Tuple)) and node in parent.elts:
            found.add(node.id)
        elif isinstance(parent, ast.keyword):
            found.add(node.id)
    return found


class _FunctionWalk:
    """Interpret one function body over held-lock state sets."""

    def __init__(self, path: str):
        self.path = path
        self.leaks: dict[tuple[str, int], int] = {}
        self.gave_up = False

    def _report(self, state: frozenset, exit_line: int) -> None:
        for token, line in state:
            self.leaks.setdefault((token, line), exit_line)

    def _exit_check(self, states: set[frozenset], line: int) -> None:
        for state in states:
            if state:
                self._report(state, line)

    def block(self, stmts, states: set[frozenset]) -> set[frozenset]:
        """Run a statement list; returns the states that fall through."""
        for stmt in stmts:
            if self.gave_up:
                return set()
            if len(states) > _STATE_CAP:
                self.gave_up = True
                return set()
            kind = _classify(stmt)
            if kind is not None:
                op, token = kind
                if op == "acquire":
                    entry = (token, stmt.lineno)
                    states = {s | {entry} for s in states}
                elif op == "release":
                    states = {
                        frozenset(e for e in s if e[0] != token)
                        for s in states
                    }
                else:  # handoff_all: a release continuation was armed
                    states = {frozenset()}
                continue
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes are walked independently
            if isinstance(stmt, ast.Return):
                self._exit_check(states, stmt.lineno)
                states = set()
                continue
            if isinstance(stmt, ast.Raise):
                states = set()  # error paths are exempt
                continue
            if isinstance(stmt, (ast.Break, ast.Continue)):
                self._exit_check(states, stmt.lineno)
                states = set()
                continue
            tokens = {e[0] for s in states for e in s}
            handed = _handoff_names(stmt, tokens)
            if handed:
                states = {
                    frozenset(e for e in s if e[0] not in handed)
                    for s in states
                }
            if isinstance(stmt, ast.If):
                then = self.block(stmt.body, set(states))
                other = self.block(stmt.orelse, set(states))
                states = then | other
            elif isinstance(stmt, (ast.While, ast.For)):
                once = self.block(stmt.body, set(states))
                twice = self.block(stmt.body, states | once)
                states = self.block(stmt.orelse, states | twice)
            elif isinstance(stmt, ast.Try):
                body = self.block(stmt.body, set(states))
                merged = set(body)
                for handler in stmt.handlers:
                    merged |= self.block(handler.body, states | body)
                if stmt.orelse:
                    merged |= self.block(stmt.orelse, set(body))
                if stmt.finalbody:
                    merged = self.block(stmt.finalbody, merged)
                states = merged
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                states = self.block(stmt.body, states)
            # other statements: effects already applied via handoff scan
        return states


def _has_acquire(fn: ast.AST) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            kind = _classify(node)
            if kind is not None and kind[0] == "acquire":
                return True
    return False


def check_locks(tree: ast.Module, path: str) -> list[Violation]:
    """DET107 over every function in a module."""
    violations: list[Violation] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _has_acquire(node):
            continue
        walk = _FunctionWalk(path)
        exits = walk.block(node.body, {frozenset()})
        if walk.gave_up:
            continue
        end_line = getattr(node, "end_lineno", node.lineno) or node.lineno
        for state in exits:
            if state:
                walk._report(state, end_line)
        for (token, line), exit_line in sorted(walk.leaks.items(),
                                               key=lambda kv: kv[0][1]):
            violations.append(Violation(
                path=path,
                line=line,
                col=0,
                code="DET107",
                message=(
                    f"lock {token!r} acquired here is not released or "
                    f"handed off on a path exiting at line {exit_line}"
                ),
            ))
    return violations
