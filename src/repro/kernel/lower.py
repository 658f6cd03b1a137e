"""Lower an IR :class:`~repro.ir.nodes.Program` to a generated Python module.

The interpreted kernel (:mod:`repro.ir.interp`) walks the statement tree
once per rank per run, paying a generator suspension plus a tree dispatch
per statement.  This pass walks the tree **once per program** instead and
emits flat Python source — one module per program, content-addressed by
the SHA-256 of its printed IR — with two entry points:

``request_gen(rank, size, inputs, wparams)``
    A drop-in replacement for the interpreter's per-rank generator: it
    yields the same :mod:`repro.sim.requests` objects in the same order
    with the same values, so every engine feature (tracing, faults,
    budgets, supervision, MEASURED mode) works unchanged and the results
    are byte-identical by construction.

``fast_gen(rank, size, inputs, wparams, rt, st)``
    The perf variant consumed by :mod:`repro.kernel.runtime`: compute,
    delay and timer requests are folded into inline clock arithmetic and
    only communication points yield (small tuples, not request objects).
    Shared-state flushes keep per-rank stats accumulation in exactly the
    engine's floating-point order.

Comp blocks that carry a Python ``kernel(env, arrays)`` callable lower
when the callable is an importable module-level function: the generated
module re-imports it by ``module:qualname`` and calls it with a per-rank
dict holding exactly the scalars the interpreter's ``env`` would hold,
then reloads every program variable from that dict.

Anything the emitter cannot reproduce bit-for-bit raises
:class:`UnsupportedConstructError`; ``backend="auto"`` catches it and
falls back to the interpreter for that program (with a logged reason).

Every generated module carries ``KERNEL_ABI``, the version of the
protocol between the generated code and its callers (entry-point
signatures, yield tuples, shared-state cells).  A stored module with any
other value is refused and re-lowered.
"""

from __future__ import annotations

import hashlib
import importlib
import time
from dataclasses import dataclass, field

from ..ir.nodes import (
    AllocStmt,
    ArrayAssign,
    Assign,
    CollectiveStmt,
    CompBlock,
    DelayStmt,
    For,
    If,
    IrecvStmt,
    IsendStmt,
    Program,
    ReadParams,
    RecvStmt,
    SendStmt,
    StartTimer,
    StopTimer,
    WaitAllStmt,
    IRValidationError,
    walk,
)
from ..ir.printer import format_program
from ..obs.logging import get_logger
from ..obs.metrics import METRICS
from ..symbolic.boolean import BoolExpr
from ..symbolic.emit import emit
from ..symbolic.expr import Expr
from ..symbolic.extended import Cond, Sum

__all__ = [
    "UnsupportedConstructError",
    "CompiledKernel",
    "program_fingerprint",
    "lower_program",
    "kernel_for",
    "load_kernel_source",
    "set_warm_dir",
    "cache_stats",
    "clear_cache",
    "cached_kernels",
    "kernel_ref",
    "resolve_kernel",
    "KERNEL_ABI",
]

log = get_logger("kernel.lower")


class UnsupportedConstructError(Exception):
    """The program uses a construct the compiled backend cannot reproduce."""


# Version of the generated-code protocol: bump it whenever the signature
# of request_gen/fast_gen, the fast yield tuples or the _rt/_st layout
# change, so warm kernels written by an older lowerer are re-lowered.
KERNEL_ABI = 1

# Builtin names the interpreter injects into every rank's environment.
_BUILTINS = ("myid", "P")

# In-process content-addressed cache: fingerprint -> CompiledKernel.
_CACHE: dict[str, "CompiledKernel"] = {}

# Optional on-disk warm cache (a ResultStore's warm/ directory).  When
# set, kernel_for consults it on an in-process miss and persists every
# fresh lowering — campaign --resume and repro serve skip lowering for
# programs any earlier process already compiled.
_WARM_DIR: str | None = None

# Plain aggregate counters (always on; published to METRICS when enabled).
_STATS = {
    "lowered": 0,
    "cache_hits": 0,
    "cache_misses": 0,
    "warm_loads": 0,
    "fallbacks": 0,
    "lowering_seconds": 0.0,
}

# The reason of the most recent auto-mode fallback (``repro profile``).
_LAST_FALLBACK: list[str | None] = [None]


def _count(name: str, amount: float = 1) -> None:
    _STATS[name] += amount
    if METRICS.enabled:
        METRICS.counter(f"kernel_{name}", "compiled-backend lowering counters").inc(amount)


def record_fallback(program_name: str, reason: str) -> None:
    """Log and count one auto-mode fallback to the interpreted kernel."""
    _count("fallbacks")
    _LAST_FALLBACK[0] = reason
    log.info("backend=auto: %s falls back to interpreted kernel: %s", program_name, reason)


def cache_stats() -> dict:
    """Snapshot of lowering/cache counters (for ``repro profile``)."""
    out = dict(_STATS)
    out["cached_programs"] = len(_CACHE)
    out["fallback_reason"] = _LAST_FALLBACK[0]
    return out


def clear_cache() -> None:
    _CACHE.clear()
    _LAST_FALLBACK[0] = None
    for key in _STATS:
        _STATS[key] = 0.0 if key == "lowering_seconds" else 0


def cached_kernels() -> dict[str, "CompiledKernel"]:
    return dict(_CACHE)


def program_fingerprint(program: Program) -> str:
    """Content address of a program: SHA-256 of its printed IR.

    The printer does not show attached Python kernels, so their
    ``module:qualname`` names are appended: two programs that differ
    only in a callable never share a cached kernel.
    """
    text = format_program(program)
    for i, s in enumerate(walk(program.body)):
        fn = getattr(s, "kernel", None)
        if fn is not None:
            text += (
                f"\nkernel @{i}: {getattr(fn, '__module__', None)}:"
                f"{getattr(fn, '__qualname__', type(fn).__qualname__)}"
            )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def resolve_kernel(module: str, qualname: str):
    """Import *module* and look up the dotted *qualname* in it."""
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def kernel_ref(fn) -> tuple[str, str]:
    """``(module, qualname)`` of a comp-block kernel the generated code
    can re-import; :class:`UnsupportedConstructError` says why not."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not isinstance(module, str) or not isinstance(qualname, str):
        raise UnsupportedConstructError(
            f"kernel callable {fn!r} is not a module-level function"
        )
    where = f"{module}:{qualname}"
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise UnsupportedConstructError(
            f"kernel callable {where} is a lambda or closure (not importable)"
        )
    try:
        found = resolve_kernel(module, qualname)
    except (ImportError, AttributeError) as exc:
        raise UnsupportedConstructError(
            f"kernel callable {where} cannot be imported: {exc}"
        ) from exc
    if found is not fn:
        raise UnsupportedConstructError(
            f"kernel callable {where} does not import as the same object"
        )
    return module, qualname


@dataclass
class CompiledKernel:
    """A lowered program: generated source plus its executable entry points."""

    program_name: str
    fingerprint: str
    source: str
    lowering_seconds: float
    _ns: dict = field(repr=False, default_factory=dict)

    @property
    def request_gen(self):
        return self._ns["request_gen"]

    @property
    def fast_gen(self):
        return self._ns["fast_gen"]


def _execute_source(source: str, name: str, fingerprint: str) -> dict:
    ns: dict = {}
    code = compile(source, f"<repro.kernel:{name}:{fingerprint[:12]}>", "exec")
    exec(code, ns)
    return ns


def set_warm_dir(path=None) -> None:
    """Point the kernel cache at a store's ``warm/`` directory (or detach)."""
    global _WARM_DIR
    _WARM_DIR = str(path) if path is not None else None


def kernel_for(program: Program) -> CompiledKernel:
    """Lower *program*, going through the content-addressed caches.

    Lookup order: in-process cache, then the warm directory (when
    attached via :func:`set_warm_dir`), then a fresh lowering — which
    is persisted back to the warm directory, best-effort.
    """
    fp = program_fingerprint(program)
    hit = _CACHE.get(fp)
    if hit is not None:
        _count("cache_hits")
        return hit
    _count("cache_misses")
    if _WARM_DIR is not None:
        from ..store import load_warm_kernel  # lazy: store pulls in the api layer

        source = load_warm_kernel(_WARM_DIR, fp)
        if source is not None:
            try:
                warm = load_kernel_source(source)
                if warm.fingerprint == fp:  # hand-edited entries must not alias
                    return warm
                log.warning("warm kernel %s embeds a different fingerprint; re-lowering", fp[:12])
            except UnsupportedConstructError as exc:
                log.warning("warm kernel %s unusable, re-lowering: %s", fp[:12], exc)
    kernel = lower_program(program, fingerprint=fp)
    _CACHE[fp] = kernel
    if _WARM_DIR is not None:
        from ..store import save_warm_kernel

        try:
            save_warm_kernel(
                _WARM_DIR, program=kernel.program_name,
                fingerprint=fp, source=kernel.source,
            )
        except OSError as exc:  # warm cache is an optimization, never fatal
            log.warning("cannot save warm kernel %s: %s", fp[:12], exc)
    return kernel


def load_kernel_source(source: str) -> CompiledKernel:
    """Warm-load a previously generated module (from the result store).

    The module carries its own ``PROGRAM``/``FINGERPRINT`` constants, so a
    warm load skips lowering entirely and seeds the in-process cache.  A
    module generated under a different :data:`KERNEL_ABI` is refused.
    """
    probe: dict = {}
    try:
        exec(compile(source, "<repro.kernel:warm>", "exec"), probe)
    except Exception as exc:  # corrupt store entry: refuse, caller re-lowers
        raise UnsupportedConstructError(f"stored kernel module failed to load: {exc}") from exc
    fp = probe.get("FINGERPRINT")
    name = probe.get("PROGRAM")
    if not isinstance(fp, str) or not isinstance(name, str) or "request_gen" not in probe:
        raise UnsupportedConstructError("stored kernel module lacks kernel entry points")
    abi = probe.get("KERNEL_ABI")
    if abi != KERNEL_ABI:
        raise UnsupportedConstructError(
            f"stored kernel module has ABI {abi!r}, this lowerer emits {KERNEL_ABI}"
        )
    kernel = CompiledKernel(
        program_name=name,
        fingerprint=fp,
        source=source,
        lowering_seconds=0.0,
        _ns=probe,
    )
    _CACHE[fp] = kernel
    _count("warm_loads")
    return kernel


def lower_program(program: Program, fingerprint: str | None = None) -> CompiledKernel:
    """Lower one program to a generated module (no cache involvement)."""
    t0 = time.perf_counter()
    try:
        program.validate()
    except IRValidationError as exc:
        raise UnsupportedConstructError(f"program does not validate: {exc}") from exc
    lowerer = _Lowerer(program)
    source = lowerer.emit_module()
    fp = fingerprint if fingerprint is not None else program_fingerprint(program)
    source = source.replace("__FINGERPRINT__", fp)
    ns = _execute_source(source, program.name, fp)
    dt = time.perf_counter() - t0
    _count("lowered")
    _count("lowering_seconds", dt)
    if METRICS.enabled:
        METRICS.histogram("kernel_lowering_time", "seconds spent lowering one program").observe(dt)
    return CompiledKernel(
        program_name=program.name,
        fingerprint=fp,
        source=source,
        lowering_seconds=dt,
        _ns=ns,
    )


# --------------------------------------------------------------------------
# expression emission
# --------------------------------------------------------------------------


def _mangle(name: str) -> str:
    if not name.isidentifier():
        raise UnsupportedConstructError(f"variable name {name!r} is not an identifier")
    return f"v_{name}"


def _emit(e: Expr | BoolExpr) -> str:
    """Emit *e* as flat Python over ``v_<name>`` locals.

    The shared :func:`repro.symbolic.emit.emit` also builds the
    interpreter's compiled form, so scalar results are bit-identical.
    """
    return emit(e, _mangle, _emit_extended)


def _emit_extended(e) -> str:
    """``Sum`` and ``Cond`` over locals; any other node is not lowerable."""
    ty = type(e)
    if ty is Sum:
        body = _emit(e.body)
        lo = _emit(e.lo)
        hi = _emit(e.hi)
        var = _mangle(e.var)
        return f"sum({body} for {var} in range(int({lo}), int({hi}) + 1))"
    if ty is Cond:
        return f"(({_emit(e.then)}) if ({_emit(e.cond)}) else ({_emit(e.orelse)}))"
    kind = "boolean" if isinstance(e, BoolExpr) else "expression"
    raise UnsupportedConstructError(f"{kind} node {ty.__name__} is not lowerable")


# --------------------------------------------------------------------------
# statement walker
# --------------------------------------------------------------------------

_PREAMBLE = '''\
"""Generated by repro.kernel.lower — do not edit.

Program {name!r}; content address (SHA-256 of printed IR) in FINGERPRINT.
"""
import math

from repro.ir.interp import InterpreterError
from repro.sim.requests import (
    Alloc,
    Collective,
    Compute,
    Delay,
    Irecv,
    Isend,
    Now,
    Recv,
    Send,
    Wait,
)
from repro.symbolic.expr import CeilDiv as _CeilDiv, FloorDiv as _FloorDiv

_fd = _FloorDiv._apply
_cd = _CeilDiv._apply
_INF = math.inf
_UNSET = object()
_NOW_T = Now(charge_timer=True)
_R_sum = lambda a, b: a + b
_R_max = max
_R_min = min

PROGRAM = {name!r}
FINGERPRINT = "__FINGERPRINT__"
KERNEL_ABI = {abi!r}
'''


class _Lowerer:
    """Walks a validated program twice, emitting both generator variants."""

    def __init__(self, program: Program):
        self.program = program
        self.helper_lines: list[str] = []
        # Names a handle variable: these must never be read as scalars
        # (the interpreter pops them from env; locals cannot replicate that).
        self.handle_vars: set[str] = set()
        for stmt in walk(program.body):
            if isinstance(stmt, (IsendStmt, IrecvStmt)):
                self.handle_vars.add(stmt.handle_var)
            elif isinstance(stmt, WaitAllStmt):
                self.handle_vars.update(stmt.handle_vars)
        # Working-set caches are keyed by statement sid in the interpreter;
        # replicate the keying (including collisions on unnumbered trees).
        self._ws_names: dict[int, str] = {}
        # Comp-block kernel callables: the scalars an env dict must mirror
        # and, per call site, the ones definitely bound there.
        self._kernels = [
            s for s in walk(program.body)
            if type(s) is CompBlock and s.kernel is not None
        ]
        self._kernel_da: dict[int, frozenset[str]] = {}
        self._kernel_names: dict[int, tuple] = {}  # id(stmt) -> (n, da, maybe)
        self._scalars: list[str] = []
        if self._kernels:
            if self.handle_vars:
                raise UnsupportedConstructError(
                    "comp block kernel callables in a program with "
                    "non-blocking handles"
                )
            self._scalars = _scalar_names(program)
            _definitely_bound(
                program.body, set(program.params) | set(_BUILTINS), self._kernel_da
            )

    # -- small helpers -----------------------------------------------------

    def _check_expr_reads(self, *exprs) -> None:
        for e in exprs:
            if e is None:
                continue
            names = e.free_vars()
            bad = names & self.handle_vars
            if bad:
                raise UnsupportedConstructError(
                    f"handle variable(s) {sorted(bad)} read as scalars"
                )

    def _ws_name(self, sid: int) -> str:
        name = self._ws_names.get(sid)
        if name is None:
            name = f"_wsc{len(self._ws_names)}"
            self._ws_names[sid] = name
        return name

    # -- module assembly ---------------------------------------------------

    def emit_module(self) -> str:
        prog = self.program
        req_lines = self._emit_gen("req")
        fast_lines = self._emit_gen("fast")
        parts = [_PREAMBLE.format(name=prog.name, abi=KERNEL_ABI)]
        parts.append("")
        parts.extend(self.helper_lines)
        parts.append("")
        parts.append("def request_gen(rank, size, inputs, wparams):")
        parts.extend(req_lines)
        parts.append("")
        parts.append("def fast_gen(rank, size, inputs, wparams, _rt, _st):")
        parts.extend(fast_lines)
        parts.append("")
        return "\n".join(parts)

    def _emit_gen(self, mode: str) -> list[str]:
        prog = self.program
        w = _Writer()
        w.line("if False:")
        w.line("    yield None  # ensures a generator even for yield-free bodies")
        if mode == "fast":
            w.line("_tt, _CHF, _EVOH, _DHC, _TIC = _rt")
            w.line("clock = 0.0")
            w.line("ev = 0")
            w.line("ct = 0.0")
            w.line("hc = 0.0")
            # handle ids are assigned in program order on both sides, so
            # the generator mirrors the runtime's per-rank counter and
            # never needs the id sent back through the resume value
            w.line("_hid = 0")
        # Interpreter order: env = dict(inputs), then builtins overwrite.
        for name in prog.params:
            w.line(f"{_mangle(name)} = inputs[{name!r}]")
        w.line("v_myid = rank")
        w.line("v_P = size")
        if self._kernels:
            # the interpreter's env (dict(inputs) plus builtins), kept per
            # rank so keys a kernel adds persist as they do in the env
            w.line("_e = dict(inputs)")
            w.line("_e['myid'] = rank")
            w.line("_e['P'] = size")
            w.line("_ka = {}")
        w.line("_wp = wparams")
        w.line("_sz = {}")
        w.line("_tm = {}")
        for name in sorted(self.handle_vars):
            w.line(f"{_mangle(name)} = _UNSET")
        for ws in dict.fromkeys(self._collect_ws_names(prog)):
            w.line(f"{ws} = None")
        # Array declaration prologue (interp order: program.arrays.values()).
        for decl in prog.arrays.values():
            if decl.materialize:
                raise UnsupportedConstructError(
                    f"array {decl.name!r} is materialized (data-dependent control flow)"
                )
            self._check_expr_reads(decl.size)
            w.line(f"_n = int({_emit(decl.size)})")
            w.line("if _n < 0:")
            w.line(
                f'    raise InterpreterError(f"array {decl.name!r} '
                'has negative size {_n}")'
            )
            w.line(f"_nb = _n * {decl.itemsize!r}")
            w.line(f"_sz[{decl.name!r}] = _nb")
            if mode == "req":
                w.line(f"yield Alloc({decl.name!r}, _nb)")
            else:
                self._fast_alloc_yield(w, decl.name)
        for stmt in prog.body:
            self._emit_stmt(w, stmt, mode)
        if mode == "fast":
            w.line("_st[0] = clock")
            w.line("_st[1] = ev")
            w.line("_st[2] = ct")
            w.line("_st[4] = hc")
        else:
            w.line("return")
        return w.lines

    def _collect_ws_names(self, prog: Program) -> list[str]:
        names = []
        for stmt in walk(prog.body):
            if isinstance(stmt, CompBlock):
                names.append(self._ws_name(stmt.sid))
        return names

    # -- fast-mode plumbing ------------------------------------------------

    def _fast_flush(self, w: "_Writer") -> None:
        # Only the cells the runtime reads mid-run: clock (deadlock
        # diagnosis) and host_cost (shared accumulator — the runtime
        # adds message costs between yields, so the float order of
        # engine accumulation survives).  events/compute_time are
        # generator-only and flush once at body end.
        w.line("_st[0] = clock")
        w.line("_st[4] = hc")

    def _fast_alloc_yield(self, w: "_Writer", name: str) -> None:
        # Engine processes Alloc inline inside _resume; the fast runtime
        # does the same in its step loop, so this round-trips without an
        # event-queue hop.  Memory errors surface from the runtime.
        w.line("ev += 1")
        self._fast_flush(w)
        w.line(f"clock = yield (7, clock, {name!r}, _nb)")
        w.line("hc = _st[4]")

    # -- statement dispatch ------------------------------------------------

    def _emit_stmt(self, w: "_Writer", stmt, mode: str) -> None:
        ty = type(stmt)
        if ty is Assign:
            self._check_expr_reads(stmt.expr)
            w.line(f"{_mangle(stmt.var)} = {_emit(stmt.expr)}")
            return
        if ty is CompBlock:
            self._emit_comp(w, stmt, mode)
            return
        if ty is For:
            self._emit_for(w, stmt, mode)
            return
        if ty is If:
            bad = stmt.cond.free_vars() & self.handle_vars
            if bad:
                raise UnsupportedConstructError(
                    f"handle variable(s) {sorted(bad)} read as scalars"
                )
            w.line(f"if {_emit(stmt.cond)}:")
            if stmt.then:
                with w.indented():
                    for s in stmt.then:
                        self._emit_stmt(w, s, mode)
            else:
                w.line("    pass")
            if stmt.orelse:
                w.line("else:")
                with w.indented():
                    for s in stmt.orelse:
                        self._emit_stmt(w, s, mode)
            return
        if ty is SendStmt:
            self._emit_send(w, stmt, mode, blocking=True)
            return
        if ty is RecvStmt:
            self._emit_recv(w, stmt, mode, blocking=True)
            return
        if ty is IsendStmt:
            self._emit_send(w, stmt, mode, blocking=False)
            return
        if ty is IrecvStmt:
            self._emit_recv(w, stmt, mode, blocking=False)
            return
        if ty is WaitAllStmt:
            self._emit_wait(w, stmt, mode)
            return
        if ty is CollectiveStmt:
            self._emit_collective(w, stmt, mode)
            return
        if ty is DelayStmt:
            self._emit_delay(w, stmt, mode)
            return
        if ty is ReadParams:
            self._emit_read_params(w, stmt, mode)
            return
        if ty is StartTimer:
            if mode == "req":
                w.line(f"_tm[{stmt.task!r}] = yield _NOW_T")
            else:
                w.line("clock += _TIC")
                w.line("ev += 1")
                w.line(f"_tm[{stmt.task!r}] = clock")
            return
        if ty is StopTimer:
            w.line("try:")
            w.line(f"    _t0 = _tm.pop({stmt.task!r})")
            w.line("except KeyError:")
            w.line(
                f'    raise InterpreterError("timer_stop({stmt.task!r}) '
                'without timer_start") from None'
            )
            if mode == "req":
                w.line("_t1 = yield _NOW_T")
            else:
                w.line("clock += _TIC")
                w.line("ev += 1")
            return
        if ty is AllocStmt:
            self._check_expr_reads(stmt.nbytes)
            w.line(f"_nb = int({_emit(stmt.nbytes)})")
            if mode == "req":
                w.line(f"yield Alloc({stmt.name!r}, _nb)")
            else:
                w.line("if _nb < 0:")
                w.line(f"    Alloc({stmt.name!r}, _nb)")
                self._fast_alloc_yield(w, stmt.name)
            w.line(f"_sz[{stmt.name!r}] = _nb")
            return
        if ty is ArrayAssign:
            raise UnsupportedConstructError(
                f"ArrayAssign to {stmt.array!r} requires materialized arrays"
            )
        raise UnsupportedConstructError(f"statement kind {ty.__name__} is not lowerable")

    # -- individual statements ---------------------------------------------

    def _emit_comp(self, w: "_Writer", stmt: CompBlock, mode: str) -> None:
        self._check_expr_reads(stmt.work)
        ws = self._ws_name(stmt.sid)
        w.line(f"_w = {_emit(stmt.work)}")
        w.line("if _w < 0:")
        w.line("    _w = 0")
        if stmt.kernel is not None:
            self._emit_kernel_call(w, stmt)
        w.line("if _w > 0:")
        with w.indented():
            w.line(f"if {ws} is None:")
            with w.indented():
                if stmt.arrays:
                    refs = " + ".join(f"_sz[{a!r}]" for a in stmt.arrays)
                    w.line("try:")
                    w.line(f"    {ws} = float({refs})")
                    w.line("except KeyError as _e:")
                    w.line(
                        f'    raise InterpreterError(f"task {stmt.name!r} references '
                        'undeclared array {_e.args[0]!r}") from None'
                    )
                else:
                    w.line(f"{ws} = 0.0")
            if mode == "req":
                w.line(
                    f"yield Compute(ops=_w * {stmt.ops_per_iter!r}, "
                    f"working_set_bytes={ws}, task={stmt.name!r})"
                )
            else:
                w.line(f"_ops = _w * {stmt.ops_per_iter!r}")
                w.line(f"if 0 <= _ops < _INF and 0 <= {ws} < _INF:")
                with w.indented():
                    w.line(f"_dt = _tt(_ops, {ws})")
                    w.line("clock += _dt")
                    w.line("ct += _dt")
                    w.line("hc += _ops * _CHF + _EVOH")
                    w.line("ev += 1")
                w.line("else:")
                w.line(f"    Compute(ops=_ops, working_set_bytes={ws}, task={stmt.name!r})")

    def _emit_kernel_call(self, w: "_Writer", stmt: CompBlock) -> None:
        """Sync the env dict, call the kernel, reload every variable.

        Definitely bound scalars go through one dict update and one
        ``itemgetter``; the rest may be unbound here, so each is
        guarded (an unbound local is absent from the interpreter's env
        too).  Both generator variants share the emitted helpers.
        """
        key = id(stmt)
        names = self._kernel_names.get(key)
        if names is None:
            module, qualname = kernel_ref(stmt.kernel)
            n = len(self._kernel_names)
            da = [v for v in self._scalars if v in self._kernel_da[key]]
            maybe = [v for v in self._scalars if v not in self._kernel_da[key]]
            names = self._kernel_names[key] = (n, da, maybe)
            if n == 0:
                self.helper_lines.append("from operator import itemgetter as _itemgetter")
                self.helper_lines.append("from repro.kernel.lower import resolve_kernel as _kref")
            self.helper_lines.append(f"_K{n} = _kref({module!r}, {qualname!r})")
            if da:
                self.helper_lines.append(
                    f"_G{n} = _itemgetter({', '.join(repr(v) for v in da)})"
                )
        n, da, maybe = names
        if da:
            pairs = ", ".join(f"{v!r}: {_mangle(v)}" for v in da)
            w.line(f"_e.update({{{pairs}}})")
        for v in maybe:
            w.line("try:")
            w.line(f"    _e[{v!r}] = {_mangle(v)}")
            w.line("except NameError:")
            w.line("    pass")
        w.line(f"_K{n}(_e, _ka)")
        if da:
            # a one-name itemgetter returns the value, not a 1-tuple
            w.line(f"{', '.join(_mangle(v) for v in da)} = _G{n}(_e)")
        for v in maybe:
            w.line(f"if {v!r} in _e:")
            w.line(f"    {_mangle(v)} = _e[{v!r}]")

    def _emit_send(self, w: "_Writer", stmt, mode: str, blocking: bool) -> None:
        self._check_expr_reads(stmt.dest, stmt.nbytes)
        w.line(f"_d = int({_emit(stmt.dest)})")
        w.line(f"_nb = int({_emit(stmt.nbytes)})")
        tag = int(stmt.tag)
        if mode == "req":
            if blocking:
                w.line(f"yield Send(dest=_d, nbytes=_nb, tag={tag!r})")
            else:
                w.line(
                    f"{_mangle(stmt.handle_var)} = "
                    f"yield Isend(dest=_d, nbytes=_nb, tag={tag!r})"
                )
            return
        w.line("if _d < 0 or not (0 <= _nb < _INF):")
        cls = "Send" if blocking else "Isend"
        w.line(f"    {cls}(dest=_d, nbytes=_nb, tag={tag!r})")
        w.line("ev += 1")
        self._fast_flush(w)
        if blocking:
            w.line(f"clock = yield (1, clock, _d, _nb, {tag!r})")
        else:
            w.line("_hid += 1")
            w.line(f"{_mangle(stmt.handle_var)} = _hid")
            w.line(f"clock = yield (3, clock, _d, _nb, {tag!r})")
        w.line("hc = _st[4]")

    def _emit_recv(self, w: "_Writer", stmt, mode: str, blocking: bool) -> None:
        self._check_expr_reads(stmt.source, stmt.nbytes)
        w.line(f"_s = int({_emit(stmt.source)})")
        w.line(f"_nb = int({_emit(stmt.nbytes)})")
        tag = int(stmt.tag)
        if mode == "req":
            if blocking:
                w.line(f"yield Recv(source=_s, tag={tag!r}, nbytes_hint=_nb)")
            else:
                w.line(
                    f"{_mangle(stmt.handle_var)} = "
                    f"yield Irecv(source=_s, tag={tag!r}, nbytes_hint=_nb)"
                )
            return
        w.line("if _s < 0 and _s != -1:")
        cls = "Recv" if blocking else "Irecv"
        w.line(f"    {cls}(source=_s, tag={tag!r}, nbytes_hint=_nb)")
        w.line("ev += 1")
        self._fast_flush(w)
        if blocking:
            w.line(f"clock = yield (2, clock, _s, {tag!r})")
        else:
            w.line("_hid += 1")
            w.line(f"{_mangle(stmt.handle_var)} = _hid")
            w.line(f"clock = yield (4, clock, _s, {tag!r})")
        w.line("hc = _st[4]")

    def _emit_wait(self, w: "_Writer", stmt: WaitAllStmt, mode: str) -> None:
        names = ", ".join(_mangle(v) for v in stmt.handle_vars)
        trail = "," if len(stmt.handle_vars) == 1 else ""
        w.line(f"_hl = [_h for _h in ({names}{trail}) if _h is not _UNSET]")
        w.line("if _hl:")
        with w.indented():
            if mode == "req":
                w.line("yield Wait(handles=tuple(_hl))")
            else:
                w.line("ev += 1")
                self._fast_flush(w)
                w.line("clock = yield (5, clock, _hl)")
                w.line("hc = _st[4]")
        for v in stmt.handle_vars:
            w.line(f"{_mangle(v)} = _UNSET")

    def _emit_collective(self, w: "_Writer", stmt: CollectiveStmt, mode: str) -> None:
        self._check_expr_reads(stmt.nbytes, stmt.root, stmt.contrib)
        w.line(f"_nb = int({_emit(stmt.nbytes)})")
        w.line(f"_rt = int({_emit(stmt.root)})")
        if stmt.contrib is not None:
            w.line(f"_cv = {_emit(stmt.contrib)}")
        else:
            w.line("_cv = None")
        kind = stmt.reduce_kind if stmt.op in ("reduce", "allreduce") else None
        if mode == "req":
            rfn = f"_R_{kind}" if kind is not None else "None"
            w.line(
                f"_res = yield Collective(op={stmt.op!r}, nbytes=_nb, root=_rt, "
                f"data=_cv, reduce_fn={rfn})"
            )
            if stmt.result_var is not None:
                w.line(f"{_mangle(stmt.result_var)} = _res.data")
            return
        w.line("if not (0 <= _nb < _INF) or _rt < 0:")
        w.line(f"    Collective(op={stmt.op!r}, nbytes=_nb, root=_rt)")
        w.line("ev += 1")
        self._fast_flush(w)
        w.line(f"_tmp = yield (6, clock, {stmt.op!r}, _nb, _rt, _cv, {kind!r})")
        w.line("clock = _tmp[0]")
        if stmt.result_var is not None:
            w.line(f"{_mangle(stmt.result_var)} = _tmp[1]")
        w.line("hc = _st[4]")

    def _emit_read_params(self, w: "_Writer", stmt: ReadParams, mode: str) -> None:
        names = tuple(stmt.names)
        w.line(f"_ms = [n for n in {names!r} if n not in _wp]")
        w.line("if _ms:")
        w.line(
            '    raise InterpreterError(f"{PROGRAM}: parameter file lacks {_ms}; '
            'run the timer-instrumented version first (Fig. 2 workflow)")'
        )
        nbytes = 8 * len(names)
        w.line(f"_pl = {{n: _wp[n] for n in {names!r}}} if v_myid == 0 else None")
        if mode == "req":
            w.line(
                f'_res = yield Collective(op="bcast", nbytes={nbytes!r}, root=0, data=_pl)'
            )
            w.line("_rd = _res.data")
        else:
            w.line("ev += 1")
            self._fast_flush(w)
            w.line(f'_tmp = yield (6, clock, "bcast", {nbytes!r}, 0, _pl, None)')
            w.line("clock = _tmp[0]")
            w.line("_rd = _tmp[1]")
            w.line("hc = _st[4]")
        for n in names:
            w.line(f"{_mangle(n)} = _rd[{n!r}]")

    def _emit_delay(self, w: "_Writer", stmt: DelayStmt, mode: str) -> None:
        self._check_expr_reads(stmt.amount)
        w.line(f"_a = {_emit(stmt.amount)}")
        if mode == "req":
            w.line(f"yield Delay(seconds=max(float(_a), 0.0), task={stmt.task!r})")
            return
        w.line("_dy = max(float(_a), 0.0)")
        w.line("if _dy < _INF:")
        with w.indented():
            w.line("clock += _dy")
            w.line("ct += _dy")
            w.line("hc += _DHC")
            w.line("ev += 1")
        w.line("else:")
        w.line(f"    Delay(seconds=_dy, task={stmt.task!r})")

    # -- loops -------------------------------------------------------------

    def _emit_for(self, w: "_Writer", stmt: For, mode: str) -> None:
        self._check_expr_reads(stmt.lo, stmt.hi)
        w.line(
            f"for {_mangle(stmt.var)} in "
            f"range(int({_emit(stmt.lo)}), int({_emit(stmt.hi)}) + 1):"
        )
        with w.indented():
            for s in stmt.body:
                self._emit_stmt(w, s, mode)


def _scalar_names(program: Program) -> list[str]:
    """Every scalar the generated code binds as a local, in a fixed order.

    Buffer names a statement carries are not scalars; handle variables
    never reach here (programs with kernels and handles fall back).
    """
    names = dict.fromkeys(program.params)
    names.update(dict.fromkeys(_BUILTINS))
    for s in walk(program.body):
        if type(s) is CompBlock:
            # reads_ only documents what a kernel reads; writes_ are
            # scalars it may bind
            found = s.work.free_vars() | s.writes_
        else:
            found = (s.reads() | s.writes()) - {
                getattr(s, "array", None), getattr(s, "name", None)
            }
        names.update(dict.fromkeys(sorted(found)))
    return list(names)


def _definitely_bound(stmts, bound: set[str], sites: dict[int, frozenset[str]]) -> set[str]:
    """Scalars bound on every path through *stmts*; records the set at
    each kernel comp block into *sites* (keyed by ``id``)."""
    bound = set(bound)
    for s in stmts:
        ty = type(s)
        if ty is Assign:
            bound.add(s.var)
        elif ty is For:
            _definitely_bound(s.body, bound | {s.var}, sites)  # may run zero times
        elif ty is If:
            bound = _definitely_bound(s.then, bound, sites) & _definitely_bound(
                s.orelse, bound, sites
            )
        elif ty is CollectiveStmt and s.result_var is not None:
            bound.add(s.result_var)
        elif ty is ReadParams:
            bound.update(s.names)
        elif ty is CompBlock and s.kernel is not None:
            sites[id(s)] = frozenset(bound)
    return bound


class _Writer:
    def __init__(self):
        self.lines: list[str] = []
        self._depth = 1

    def line(self, text: str) -> None:
        self.lines.append("    " * self._depth + text)

    def indented(self):
        return _Indent(self)


class _Indent:
    def __init__(self, writer: _Writer):
        self.w = writer

    def __enter__(self):
        self.w._depth += 1
        return self.w

    def __exit__(self, *exc):
        self.w._depth -= 1
        return False
