"""Flow-aware per-module rules: GL102 and the GL2xx/GL30x families.

These rules still run one module at a time (so they plug into the same
per-file pass as the GL00x rules and their findings cache per file),
but unlike the GL00x checks they reason about *paths* through a
function body: which statements run between acquiring a resource and
releasing it, whether a release is reachable on the exception path,
which class ends up owning a handle stored on ``self``.

The truly cross-module rules (GL101/GL103/GL104/GL301) live in
:mod:`.project_rules` and consume the summaries built by
:mod:`.semantic`.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass

from .rules import ModuleContext, Rule, _call_name
from .semantic import (
    WALL_CLOCK_CALLS,
    _ImportTable,
    _own_nodes,
    dotted_name,
    module_name_for,
)

__all__ = ["FLOW_RULES"]

#: Module prefixes that run on a *modelled* time axis: the fault plans,
#: the network simulator, the backhaul/resilience clocks and the cloud
#: dispatcher all take time as data (``at_time``/``duration_s``), so a
#: wall-clock read inside them silently couples results to host load.
SIM_TIME_PREFIXES = (
    "repro.faults",
    "repro.net",
    "repro.gateway.backhaul",
    "repro.gateway.resilience",
    "repro.cloud.dispatch",
)

#: Terminal callee names treated as executor/pool constructions.
EXECUTOR_CLASSES = frozenset({
    "ProcessPoolExecutor", "ThreadPoolExecutor", "Pool",
    "ParallelCloudService",
})

#: Calls that log/count/propagate an error inside an except handler.
TELEMETRY_CALL_NAMES = frozenset({
    "count", "record", "gauge", "absorb", "absorb_snapshot", "log",
    "warning", "warn", "error", "exception", "critical", "debug",
    "info", "print", "fail",
})

_FuncNode = ast.FunctionDef | ast.AsyncFunctionDef


def _module_dotted(context: ModuleContext) -> str:
    return module_name_for(context.path)


def _is_test_context(context: ModuleContext) -> bool:
    parts = set(context.package_parts)
    return (
        "tests" in parts
        or context.module_name.startswith("test_")
        or context.module_name == "conftest"
    )


def _import_table(tree: ast.Module, module: str) -> _ImportTable:
    table = _ImportTable()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            table.add_import(node)
        elif isinstance(node, ast.ImportFrom):
            table.add_import_from(node, module)
    return table


def _functions(tree: ast.Module) -> Iterator[tuple[_FuncNode, str | None]]:
    """Every function def with its enclosing class name (or ``None``)."""
    stack: list[tuple[ast.AST, str | None]] = [(tree, None)]
    while stack:
        node, cls = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FuncNode):
                yield child, cls
                stack.append((child, cls))
            elif isinstance(child, ast.ClassDef):
                stack.append((child, child.name))
            elif not isinstance(child, ast.Lambda):
                stack.append((child, cls))


class WallClockInSimPath(Rule):
    """GL102: wall-clock read inside a simulated-time module.

    ``repro.faults``, ``repro.net.*``, the backhaul/resilience layer and
    the cloud dispatcher model time explicitly (``at_time`` arguments,
    modelled clocks) so that runs are reproducible and host-speed
    independent. A ``time.time()``/``time.monotonic()``/
    ``datetime.now()`` call inside those modules couples results to the
    machine the test happens to run on. Thread modelled time through
    instead; where real wall-clock is the *point* (e.g. a hang fault
    that must trip a real decode timeout), suppress with
    ``# noqa: GL102`` and a justifying comment.
    """

    code = "GL102"
    name = "wall-clock-in-sim-path"

    def check(
        self, tree: ast.Module, context: ModuleContext
    ) -> Iterator[tuple[int, int, str]]:
        module = _module_dotted(context)
        if not module.startswith(SIM_TIME_PREFIXES):
            return
        imports = _import_table(tree, module)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            raw = dotted_name(node.func)
            resolved = imports.resolve(raw) if raw else ""
            if resolved in WALL_CLOCK_CALLS:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"wall-clock call {resolved}() in simulated-time "
                    f"module {module}: thread modelled time "
                    "(at_time/duration_s) instead so results do not "
                    "depend on host speed",
                )


# ---------------------------------------------------------------------------
# GL2xx — resource lifecycle


@dataclass
class _Acquisition:
    """One resource acquired in a function body."""

    kind: str  # "shm_create" | "shm_attach" | "executor" | "file"
    node: ast.stmt
    line: int
    col: int
    var: str | None  # local name it is bound to, if any
    self_attr: str | None  # "_pool" for `self._pool = ...`


_RELEASE_METHODS = {
    "shm_create": frozenset({"unlink"}),
    "shm_attach": frozenset({"close"}),
    "executor": frozenset({"shutdown", "close", "terminate"}),
    "file": frozenset({"close"}),
}

_KIND_LABEL = {
    "shm_create": "SharedMemory block (create=True)",
    "shm_attach": "SharedMemory attachment",
    "executor": "executor/pool",
    "file": "file handle",
}

_KIND_RELEASE_HINT = {
    "shm_create": "unlink() (and close()) it",
    "shm_attach": "close() it",
    "executor": "shutdown()/close() it",
    "file": "close() it (or use `with open(...)`)",
}

_KIND_CODE = {
    "shm_create": "GL201",
    "shm_attach": "GL201",
    "executor": "GL202",
    "file": "GL203",
}


def _classify_acquisition(call: ast.Call, acquirers: dict[str, str]) -> str | None:
    """Resource kind acquired by ``call``, or ``None``."""
    name = _call_name(call)
    raw = dotted_name(call.func)
    if name == "SharedMemory":
        create = any(
            kw.arg == "create"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in call.keywords
        )
        return "shm_create" if create else "shm_attach"
    if name in EXECUTOR_CLASSES:
        return "executor"
    if isinstance(call.func, ast.Name) and name == "open":
        return "file"
    # A same-module helper that returns an acquisition ("acquirer").
    key = raw if raw.startswith("self.") else name
    return acquirers.get(key)


def _find_acquirers(tree: ast.Module) -> dict[str, str]:
    """Same-module functions whose return value is an acquisition.

    ``def _make_pool(self): ... return pool_cls(...)`` where the body
    mentions an executor class is an executor acquirer: calls to it are
    acquisitions at the call site, and the *callee* itself is exempt
    (its return is an ownership transfer by design).
    """
    acquirers: dict[str, str] = {}
    for func, cls in _functions(tree):
        returns_call = any(
            isinstance(n, ast.Return) and isinstance(n.value, ast.Call)
            for n in _own_nodes(func)
        )
        if not returns_call:
            continue
        mentions = {
            n.id
            for n in ast.walk(func)
            if isinstance(n, ast.Name)
        }
        kind = None
        if mentions & EXECUTOR_CLASSES:
            kind = "executor"
        elif "SharedMemory" in mentions:
            kind = "shm_attach"
        if kind is None:
            continue
        acquirers[func.name] = kind
        if cls is not None:
            acquirers[f"self.{func.name}"] = kind
    return acquirers


def _with_bound_calls(func: _FuncNode) -> set[int]:
    """ids of Call nodes managed by a ``with`` (or ``enter_context``)."""
    managed: set[int] = set()
    for node in _own_nodes(func):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    managed.add(id(expr))
                    # with closing(open(...)) / with suppress(...): ...
                    managed.update(
                        id(a) for a in expr.args if isinstance(a, ast.Call)
                    )
        elif isinstance(node, ast.Call):
            func_name = _call_name(node)
            if func_name in ("enter_context", "callback", "push"):
                managed.update(
                    id(a) for a in node.args if isinstance(a, ast.Call)
                )
    return managed


def _collect_acquisitions(
    func: _FuncNode, acquirers: dict[str, str]
) -> list[_Acquisition]:
    managed = _with_bound_calls(func)
    out: list[_Acquisition] = []
    for node in _own_nodes(func):
        if not isinstance(node, (ast.Assign, ast.Expr)):
            continue
        value = node.value
        if not isinstance(value, ast.Call) or id(value) in managed:
            continue
        kind = _classify_acquisition(value, acquirers)
        if kind is None:
            continue
        var = None
        self_attr = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                var = target.id
            elif isinstance(target, ast.Attribute):
                if (
                    isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    self_attr = target.attr
                else:
                    continue  # stored on another object: handoff
            else:
                continue  # tuple/subscript target: treat as handoff
        out.append(
            _Acquisition(
                kind=kind, node=node,
                line=value.lineno, col=value.col_offset,
                var=var, self_attr=self_attr,
            )
        )
    return out


def _class_released_attrs(tree: ast.Module) -> dict[str, set[str]]:
    """Per class: ``self.<attr>`` names some method releases or dels."""
    released: dict[str, set[str]] = {}
    for func, cls in _functions(tree):
        if cls is None:
            continue
        attrs = released.setdefault(cls, set())
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                target = node.func.value
                if (
                    node.func.attr
                    in ("close", "shutdown", "unlink", "terminate")
                    and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attrs.add(target.attr)
            elif isinstance(node, ast.Delete):
                for tgt in node.targets:
                    if (
                        isinstance(tgt, ast.Attribute)
                        and isinstance(tgt.value, ast.Name)
                        and tgt.value.id == "self"
                    ):
                        attrs.add(tgt.attr)
    return released


def _var_escapes(func: _FuncNode, var: str) -> bool:
    """Ownership transfer: returned, yielded, or stored on an object."""
    for node in _own_nodes(func):
        if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            value = getattr(node, "value", None)
            if value is not None and any(
                isinstance(n, ast.Name) and n.id == var
                for n in ast.walk(value)
            ):
                return True
        elif isinstance(node, ast.Assign):
            stores_var = any(
                isinstance(n, ast.Name) and n.id == var
                for n in ast.walk(node.value)
            )
            if stores_var and any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ):
                return True
        elif isinstance(node, ast.Call):
            name = _call_name(node)
            if name in ("append", "extend", "add", "put", "insert") and any(
                isinstance(n, ast.Name) and n.id == var
                for a in node.args
                for n in ast.walk(a)
            ):
                return True
    return False


def _release_sites(
    func: _FuncNode, var: str, kind: str
) -> list[tuple[ast.Call, bool]]:
    """``(call, in_finally)`` for each release of ``var`` in ``func``.

    A ``with var:`` / ``with closing(var):`` block counts as an
    exception-safe release.
    """
    wanted = _RELEASE_METHODS[kind] | {"close"}
    sites: list[tuple[ast.Call, bool]] = []

    def visit(node: ast.AST, in_finally: bool) -> None:
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
        ):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if any(
                    isinstance(n, ast.Name) and n.id == var
                    for n in ast.walk(item.context_expr)
                ):
                    fake = ast.Call(
                        func=ast.Name(id="with", ctx=ast.Load()),
                        args=[], keywords=[],
                    )
                    ast.copy_location(fake, item.context_expr)
                    sites.append((fake, True))
            for child in node.body:
                visit(child, in_finally)
            return
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in wanted
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == var
        ):
            sites.append((node, in_finally))
        if isinstance(node, ast.Try):
            for child in (*node.body, *node.orelse):
                visit(child, in_finally)
            for handler in node.handlers:
                for child in handler.body:
                    visit(child, in_finally)
            for child in node.finalbody:
                visit(child, True)
            return
        for child in ast.iter_child_nodes(node):
            visit(child, in_finally)

    for stmt in func.body:
        visit(stmt, False)
    return sites


def _has_required_release(
    sites: list[tuple[ast.Call, bool]], kind: str
) -> bool:
    required = _RELEASE_METHODS[kind]
    return any(
        isinstance(call.func, ast.Attribute) and call.func.attr in required
        or _call_name(call) == "with"
        for call, _fin in sites
    )


def _calls_between(func: _FuncNode, line_lo: int, line_hi: int) -> bool:
    """Any call strictly between two lines (i.e. something can raise)."""
    for node in _own_nodes(func):
        if (
            isinstance(node, ast.Call)
            and line_lo < node.lineno < line_hi
        ):
            return True
    return False


class _ResourceRule(Rule):
    """Shared machinery for GL201/GL202/GL203/GL204."""

    def _analyze(
        self, tree: ast.Module, context: ModuleContext
    ) -> Iterator[tuple[str, int, int, str]]:
        if _is_test_context(context):
            return
        acquirers = _find_acquirers(tree)
        released_attrs = _class_released_attrs(tree)
        acquirer_names = {k for k in acquirers if not k.startswith("self.")}
        for func, cls in _functions(tree):
            if func.name in acquirer_names:
                continue  # its return IS the handoff
            for acq in _collect_acquisitions(func, acquirers):
                yield from self._check_acquisition(
                    func, cls, acq, released_attrs
                )

    def _check_acquisition(
        self,
        func: _FuncNode,
        cls: str | None,
        acq: _Acquisition,
        released_attrs: dict[str, set[str]],
    ) -> Iterator[tuple[str, int, int, str]]:
        label = _KIND_LABEL[acq.kind]
        hint = _KIND_RELEASE_HINT[acq.kind]
        leak_code = _KIND_CODE[acq.kind]
        if acq.self_attr is not None:
            owner = released_attrs.get(cls or "", set())
            if acq.self_attr not in owner:
                yield (
                    leak_code, acq.line, acq.col,
                    f"{label} stored on self.{acq.self_attr} but no "
                    f"method of {cls or 'this class'} ever releases it: "
                    f"add a close()/shutdown() that {hint}",
                )
            return
        if acq.var is None:
            yield (
                leak_code, acq.line, acq.col,
                f"{label} acquired and immediately dropped: bind it and "
                f"{hint}",
            )
            return
        sites = _release_sites(func, acq.var, acq.kind)
        if not _has_required_release(sites, acq.kind):
            if _var_escapes(func, acq.var):
                return  # ownership transferred to the caller/container
            yield (
                leak_code, acq.line, acq.col,
                f"{label} {acq.var!r} acquired but never released in "
                f"{func.name}() and never handed off: {hint} on every "
                "exit path (try/finally or a with-block)",
            )
            return
        if any(fin for _call, fin in sites):
            return
        first = min(call.lineno for call, _fin in sites)
        if _calls_between(func, acq.line, first):
            yield (
                "GL204", acq.line, acq.col,
                f"{label} {acq.var!r} is released only on the success "
                f"path of {func.name}(): an exception between line "
                f"{acq.line} and line {first} leaks it — move the "
                "release into try/finally or use a with-block",
            )


class SharedMemoryLifecycle(_ResourceRule):
    """GL201: a SharedMemory block is acquired without a guaranteed release.

    ``SharedMemory(create=True)`` allocates a kernel object that outlives
    the process unless ``unlink()`` runs; an attach-side handle pins the
    mapping until ``close()``. The repo convention (PR 6) is
    *parent-owns-unlink*: the creator is responsible for ``unlink()`` on
    every path — including drain/quarantine/error — and workers only
    ``close()`` their attachment. A block returned to the caller, stored
    on a container, or staged onto another object is an explicit
    ownership handoff and is exempt; a block stored on ``self`` makes
    the class the owner, which must release it in some method.
    """

    code = "GL201"
    name = "shm-lifecycle"

    def check(
        self, tree: ast.Module, context: ModuleContext
    ) -> Iterator[tuple[int, int, str]]:
        for code, line, col, msg in self._analyze(tree, context):
            if code == self.code:
                yield line, col, msg


class ExecutorLifecycle(_ResourceRule):
    """GL202: an executor/pool is created without a guaranteed shutdown.

    A ``ProcessPoolExecutor``/``ThreadPoolExecutor``/``Pool`` (or this
    repo's ``ParallelCloudService``) left unreleased keeps worker
    processes and their pipes alive; under pytest that turns into hung
    test sessions and leaked semaphores. Same ownership model as GL201:
    return/store handoffs are exempt, ``self`` storage makes the class
    the owner, everything else needs ``shutdown()``/``close()`` on all
    exits.
    """

    code = "GL202"
    name = "executor-lifecycle"

    def check(
        self, tree: ast.Module, context: ModuleContext
    ) -> Iterator[tuple[int, int, str]]:
        for code, line, col, msg in self._analyze(tree, context):
            if code == self.code:
                yield line, col, msg


class FileLifecycle(_ResourceRule):
    """GL203: ``open()`` without ``with`` or a guaranteed ``close()``.

    A file handle bound outside a ``with`` block relies on GC for
    closure — which CPython happens to do promptly and PyPy does not,
    and which drops buffered writes on error paths either way. Use
    ``with open(...) as fh`` (or close in a ``finally``); returning the
    handle transfers ownership and is exempt.
    """

    code = "GL203"
    name = "file-lifecycle"

    def check(
        self, tree: ast.Module, context: ModuleContext
    ) -> Iterator[tuple[int, int, str]]:
        for code, line, col, msg in self._analyze(tree, context):
            if code == self.code:
                yield line, col, msg


class ReleaseNotExceptionSafe(_ResourceRule):
    """GL204: a release exists but only on the success path.

    The function does release its pool/shm/file — but the release sits
    in straight-line code after calls that can raise, so any exception
    in between leaks the resource. This is exactly how a crashed chaos
    drill leaves worker pools behind. Move the release into a
    ``finally`` block or manage the resource with ``with``.
    """

    code = "GL204"
    name = "release-not-exception-safe"

    def check(
        self, tree: ast.Module, context: ModuleContext
    ) -> Iterator[tuple[int, int, str]]:
        for code, line, col, msg in self._analyze(tree, context):
            if code == self.code:
                yield line, col, msg


# ---------------------------------------------------------------------------
# GL30x — concurrency (per-module parts)


class ClosureOverPoolBoundary(Rule):
    """GL302: a closure/lambda is shipped to an executor.

    ``pool.submit(lambda: decode(samples), ...)`` pickles the closure's
    captured environment for a process pool — including any captured
    ndarray, byte-for-byte, through the pickle pipe that the shared-
    memory fast path exists to avoid (and lambdas do not pickle at
    all, failing only at runtime). Submit a module-level function and
    pass data explicitly, so the shm handoff can see it.
    """

    code = "GL302"
    name = "closure-over-pool-boundary"

    def check(
        self, tree: ast.Module, context: ModuleContext
    ) -> Iterator[tuple[int, int, str]]:
        if _is_test_context(context):
            return
        for func, _cls in _functions(tree):
            nested = {
                n.name
                for n in _own_nodes(func)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for node in _own_nodes(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                is_pool_call = (
                    isinstance(callee, ast.Attribute)
                    and callee.attr in ("submit", "map")
                )
                shipped: list[ast.expr] = []
                if is_pool_call and node.args:
                    shipped.append(node.args[0])
                shipped.extend(
                    kw.value
                    for kw in node.keywords
                    if kw.arg == "initializer"
                )
                for expr in shipped:
                    if isinstance(expr, ast.Lambda) or (
                        isinstance(expr, ast.Name) and expr.id in nested
                    ):
                        yield (
                            expr.lineno,
                            expr.col_offset,
                            "closure shipped across the pool boundary: "
                            "its captured environment (arrays included) "
                            "rides the pickle pipe — submit a "
                            "module-level function and pass data as "
                            "arguments",
                        )


class SwallowedException(Rule):
    """GL303: ``except Exception`` swallows the error without a trace.

    A broad handler whose body neither re-raises nor records anything
    (telemetry counter, log call) erases the failure: the exact bug
    PR 6 fixed by hand in ``try_decode``, where a brittle demodulator's
    crash became an invisible miss. Count it
    (``telemetry.count("...errors")``), log it, or narrow the handler
    to the exception types the code actually expects.
    """

    code = "GL303"
    name = "swallowed-exception"

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(
        self, tree: ast.Module, context: ModuleContext
    ) -> Iterator[tuple[int, int, str]]:
        if _is_test_context(context):
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                continue  # bare except is GL304's finding
            names = self._handler_type_names(node.type)
            if not names & self._BROAD:
                continue
            if self._body_accounts_for_error(node.body):
                continue
            yield (
                node.lineno,
                node.col_offset,
                f"except {'/'.join(sorted(names))} drops the error "
                "without a trace: count it on a telemetry counter, log "
                "it, re-raise, or narrow the handler to expected types",
            )

    @staticmethod
    def _handler_type_names(node: ast.expr) -> set[str]:
        if isinstance(node, ast.Tuple):
            return {
                n.id for n in node.elts if isinstance(n, ast.Name)
            }
        if isinstance(node, ast.Name):
            return {node.id}
        return set()

    @staticmethod
    def _body_accounts_for_error(body: list[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Call):
                    name = _call_name(node)
                    if name in TELEMETRY_CALL_NAMES:
                        return True
        return False


class BareExcept(Rule):
    """GL304: bare ``except:`` catches ``SystemExit``/``KeyboardInterrupt``.

    A bare handler intercepts interpreter-shutdown exceptions along
    with everything else, turning Ctrl-C into silent corruption in
    drain loops. Catch ``Exception`` instead (the autofix does exactly
    this); then GL303 still checks that the error is accounted for.
    """

    code = "GL304"
    name = "bare-except"

    def check(
        self, tree: ast.Module, context: ModuleContext
    ) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield (
                    node.lineno,
                    node.col_offset,
                    "bare `except:` also catches SystemExit/"
                    "KeyboardInterrupt: catch `Exception` (or narrower) "
                    "instead",
                )


FLOW_RULES: tuple[type[Rule], ...] = (
    WallClockInSimPath,
    SharedMemoryLifecycle,
    ExecutorLifecycle,
    FileLifecycle,
    ReleaseNotExceptionSafe,
    ClosureOverPoolBoundary,
    SwallowedException,
    BareExcept,
)
